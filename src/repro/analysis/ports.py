"""Destination-port analyses (paper Table 5, Figures 11-12 and 18-20).

All functions consume flow tables of traffic *toward meta-telescope
prefixes* (or telescope captures) and produce port rankings, either
globally or grouped by destination continent / network type — the data
behind the paper's bean plots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.traffic.flows import FlowTable, aggregate_sums


@dataclass(frozen=True, slots=True)
class PortActivity:
    """Packet counts per destination port within one group."""

    group: str
    ports: np.ndarray
    packets: np.ndarray

    def share_of(self, port: int) -> float:
        """This port's share of the group's packets."""
        total = self.packets.sum()
        if total == 0:
            return 0.0
        mask = self.ports == port
        return float(self.packets[mask].sum() / total)

    def rank_of(self, port: int) -> int | None:
        """1-based popularity rank of ``port`` in the group, or None."""
        order = np.argsort(-self.packets, kind="stable")
        ranked = self.ports[order]
        positions = np.flatnonzero(ranked == port)
        return int(positions[0]) + 1 if len(positions) else None


def port_packet_counts(flows: FlowTable, tcp_only: bool = True) -> PortActivity:
    """Aggregate packets per destination port."""
    table = flows.tcp() if tcp_only else flows
    if len(table) == 0:
        return PortActivity(
            group="all",
            ports=np.empty(0, dtype=np.int64),
            packets=np.empty(0, dtype=np.int64),
        )
    ports, (packets,) = aggregate_sums(table.dport.astype(np.int64), table.packets)
    return PortActivity(group="all", ports=ports, packets=packets)


def top_ports(flows: FlowTable, count: int = 10, tcp_only: bool = True) -> list[int]:
    """The ``count`` most targeted TCP ports, descending (Table 5)."""
    activity = port_packet_counts(flows, tcp_only=tcp_only)
    order = np.argsort(-activity.packets, kind="stable")
    return [int(p) for p in activity.ports[order][:count]]


def port_activity_by_group(
    flows: FlowTable,
    group_of_block: dict[int, str],
) -> dict[str, PortActivity]:
    """Per-group TCP port activity (group = continent or network type).

    ``group_of_block`` maps destination /24 block ids to group labels;
    unmapped blocks are skipped.
    """
    table = flows.tcp()
    groups: dict[str, PortActivity] = {}
    if len(table) == 0:
        return groups
    dst_blocks = table.dst_blocks()
    labels = np.array(
        [group_of_block.get(int(b), "") for b in dst_blocks], dtype=object
    )
    for group in sorted({label for label in labels if label}):
        mask = labels == group
        ports, (packets,) = aggregate_sums(
            table.dport[mask].astype(np.int64), table.packets[mask]
        )
        groups[group] = PortActivity(group=group, ports=ports, packets=packets)
    return groups


def top_ports_per_group(
    activity_by_group: dict[str, PortActivity], per_group: int = 10
) -> list[int]:
    """Union of each group's top ports, ordered by total popularity.

    This is how the paper builds its top-16 (by region) and top-12
    (by type) bean-plot port lists: take each group's top list, join
    them, and order by overall activity.
    """
    union: set[int] = set()
    for activity in activity_by_group.values():
        order = np.argsort(-activity.packets, kind="stable")
        union.update(int(p) for p in activity.ports[order][:per_group])
    totals: dict[int, float] = {port: 0.0 for port in union}
    for activity in activity_by_group.values():
        for port in union:
            mask = activity.ports == port
            totals[port] += float(activity.packets[mask].sum())
    return sorted(union, key=lambda port: -totals[port])


def bean_matrix(
    activity_by_group: dict[str, PortActivity],
    ports: list[int],
    relative_to: str = "group",
) -> tuple[list[str], np.ndarray]:
    """Port x group share matrix backing the bean plots.

    ``relative_to='group'`` normalises within each group (Figures
    11/12); ``'overall'`` normalises by total traffic (Figure 18).
    Returns (group labels, matrix[len(ports), len(groups)]).
    """
    groups = sorted(activity_by_group)
    matrix = np.zeros((len(ports), len(groups)))
    overall = sum(a.packets.sum() for a in activity_by_group.values())
    for column, group in enumerate(groups):
        activity = activity_by_group[group]
        denominator = (
            activity.packets.sum() if relative_to == "group" else overall
        )
        if denominator == 0:
            continue
        for row, port in enumerate(ports):
            mask = activity.ports == port
            matrix[row, column] = activity.packets[mask].sum() / denominator
    return groups, matrix

"""Operational network telescopes (full-capture sensors on dark space).

The paper uses three telescopes — TUS1 (North America, 1,856 /24s),
TEU1 (Central Europe, 768 /24s, ports 23 and 445 blocked at ingress,
some blocks dynamically lent to end users) and TEU2 (Central Europe,
8 /24s, directly peering at ten of the IXPs) — to calibrate thresholds
(Table 2/3), compare port mixes (Table 5) and evaluate coverage
(Table 4).  A telescope capture is an *unsampled* flow table restricted
to the telescope's blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.traffic.flows import FlowTable
from repro.traffic.packets import PROTO_TCP
from repro.vantage.sampling import VantageDayView


@dataclass(slots=True)
class Telescope:
    """A full-capture telescope over a set of /24 blocks."""

    code: str
    region: str
    blocks: np.ndarray
    #: TCP/UDP destination ports dropped by the ingress router (TEU1
    #: blocks 23 and 445).
    blocked_ports: frozenset[int] = frozenset()
    #: Blocks dynamically lent to end users on a given day are not dark
    #: that day; maps day -> array of lent-out blocks.
    lent_blocks_by_day: dict[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.blocks = np.unique(np.asarray(self.blocks, dtype=np.int64))
        if len(self.blocks) == 0:
            raise ValueError(f"telescope {self.code} has no blocks")

    def size(self) -> int:
        """Number of /24 blocks in the telescope."""
        return len(self.blocks)

    def dark_blocks_on(self, day: int) -> np.ndarray:
        """Blocks actually dark on ``day`` (minus lent-out blocks)."""
        lent = self.lent_blocks_by_day.get(day)
        if lent is None or len(lent) == 0:
            return self.blocks
        return np.setdiff1d(self.blocks, np.asarray(lent, dtype=np.int64))

    def capture(self, flows: FlowTable, day: int) -> VantageDayView:
        """The telescope's unsampled view of one ground-truth day.

        Blocks lent out to end users that day are routed to the users,
        not to the sensor, so their traffic is not captured.
        """
        mine = flows.toward_blocks(self.dark_blocks_on(day))
        if self.blocked_ports:
            blocked = np.asarray(sorted(self.blocked_ports), dtype=np.uint16)
            mine = mine.filter(~np.isin(mine.dport, blocked))
        return VantageDayView(
            vantage=self.code, day=day, flows=mine, sampling_factor=1.0
        )

    def daily_stats(self, view: VantageDayView) -> "TelescopeDailyStats":
        """Table-2 style statistics for one captured day."""
        flows = view.flows
        total_packets = flows.total_packets()
        tcp = flows.filter(flows.proto == PROTO_TCP)
        tcp_packets = tcp.total_packets()
        tcp_bytes = tcp.total_bytes()
        captured_blocks = len(self.dark_blocks_on(view.day))
        return TelescopeDailyStats(
            code=self.code,
            size_blocks=self.size(),
            packets_per_block=(
                total_packets / captured_blocks if captured_blocks else 0.0
            ),
            tcp_share=tcp_packets / total_packets if total_packets else 0.0,
            avg_tcp_packet_size=tcp_bytes / tcp_packets if tcp_packets else 0.0,
        )


@dataclass(frozen=True, slots=True)
class TelescopeDailyStats:
    """One telescope-day summary (a Table 2 row)."""

    code: str
    size_blocks: int
    packets_per_block: float
    tcp_share: float
    avg_tcp_packet_size: float

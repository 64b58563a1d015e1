"""Comparing meta-telescope traffic against operational telescopes.

The paper's evaluation step (ii) in Section 4.3: "compare port count
statistics from the traffic we observe towards our inferred dark
prefixes against traffic observed at operational telescopes", finding
"a perfect overlap for the top ports".  This module quantifies that
comparison: top-k overlap, rank agreement (Spearman over the shared
ports), and distribution distance over port shares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats

from repro.analysis.ports import PortActivity, port_packet_counts
from repro.traffic.flows import FlowTable


@dataclass(frozen=True, slots=True)
class PortComparison:
    """Similarity of two vantage points' port statistics."""

    top_k: int
    overlap: int
    spearman_rho: float
    l1_distance: float


def compare_port_statistics(
    left: FlowTable, right: FlowTable, top_k: int = 10
) -> PortComparison:
    """Compare two traffic captures' TCP port statistics.

    * ``overlap``: size of the intersection of the two top-k lists;
    * ``spearman_rho``: rank correlation of packet counts over the
      union of both top-k lists (ports missing on one side count 0);
    * ``l1_distance``: total variation distance between the two port
      share distributions over that union (0 identical .. 1 disjoint).
    """
    left_activity = port_packet_counts(left)
    right_activity = port_packet_counts(right)
    left_top = _top_list(left_activity, top_k)
    right_top = _top_list(right_activity, top_k)
    overlap = len(set(left_top) & set(right_top))

    union = sorted(set(left_top) | set(right_top))
    if len(union) < 2:
        rho = 1.0 if union else 0.0
    else:
        left_counts = [_count_of(left_activity, port) for port in union]
        right_counts = [_count_of(right_activity, port) for port in union]
        rho = float(stats.spearmanr(left_counts, right_counts).statistic)
    left_shares = _shares(left_activity, union)
    right_shares = _shares(right_activity, union)
    l1 = float(np.abs(left_shares - right_shares).sum() / 2)
    return PortComparison(
        top_k=top_k, overlap=overlap, spearman_rho=rho, l1_distance=l1
    )


def _top_list(activity: PortActivity, top_k: int) -> list[int]:
    order = np.argsort(-activity.packets, kind="stable")
    return [int(p) for p in activity.ports[order][:top_k]]


def _count_of(activity: PortActivity, port: int) -> int:
    mask = activity.ports == port
    return int(activity.packets[mask].sum())


def _shares(activity: PortActivity, ports: list[int]) -> np.ndarray:
    counts = np.array([_count_of(activity, port) for port in ports], dtype=float)
    total = counts.sum()
    return counts / total if total else counts

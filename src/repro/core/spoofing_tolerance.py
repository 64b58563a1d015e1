"""Spoofing tolerance from unrouted address space (paper Section 7.2).

Spoofers draw fake sources from routed *and* unrouted space, so the
rate at which packets appear "from" /24s inside never-announced /8s is
a clean baseline for how much spoofed pollution any /24 suffers.  The
paper takes the 99.99th percentile of per-/24 daily packet counts
inside two unrouted /8s and forgives that many source packets per /24
per vantage-day.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.net.blocksets import as_sorted_unique, sorted_member_mask
from repro.traffic.flows import aggregate_sums
from repro.vantage.sampling import VantageDayView

if TYPE_CHECKING:
    from repro.core.accum import PrefixAccumulator

DEFAULT_QUANTILE = 0.9999


def _zero_padded_quantile(seen: np.ndarray, total: int, quantile: float) -> float:
    """``np.quantile(counts, quantile, method="higher")`` for ``counts`` =
    ``seen`` padded with zeros to ``total`` entries, never built: numpy
    takes element ``ceil((total - 1) * quantile)`` of the sorted counts,
    which read negative seen values, the zero run, the other seen values.
    """
    rank = math.ceil((total - 1) * quantile)
    seen = np.sort(seen)
    negatives = int(np.searchsorted(seen, 0))
    zeros = total - len(seen)
    if negatives <= rank < negatives + zeros:
        return 0.0
    return float(seen[rank if rank < negatives else rank - zeros])


def _tolerances(
    pooled: Mapping[str, tuple[np.ndarray, np.ndarray]],
    unrouted_blocks: np.ndarray,
    quantile: float,
) -> dict[str, float]:
    """Tolerance per vantage from its sorted-unique ``(source blocks,
    packet sums)`` table; baseline blocks absent from it are the zeros."""
    if not 0.0 < quantile <= 1.0:
        raise ValueError(f"quantile out of range: {quantile}")
    baseline = as_sorted_unique(unrouted_blocks)
    if len(baseline) == 0:
        raise ValueError("need unrouted baseline blocks")
    tolerances: dict[str, float] = {}
    for vantage, (blocks, pkts) in pooled.items():
        lo, hi = np.searchsorted(blocks, (baseline[0], baseline[-1] + 1))
        inside = sorted_member_mask(blocks[lo:hi], baseline)
        tolerances[vantage] = _zero_padded_quantile(
            pkts[lo:hi][inside], len(baseline), quantile
        )
    return tolerances


def tolerance_for_view(
    view: VantageDayView,
    unrouted_blocks: np.ndarray,
    quantile: float = DEFAULT_QUANTILE,
) -> float:
    """Forgivable source packets per /24 for one vantage-day.

    Computed over *all* unrouted baseline blocks, including the ones
    with zero sightings — most of the distribution is zeros, which is
    why the tolerance is usually 0-2 packets.
    """
    return tolerances_for_views([view], unrouted_blocks, quantile)[view.vantage]


def tolerances_for_views(
    views: list[VantageDayView],
    unrouted_blocks: np.ndarray,
    quantile: float = DEFAULT_QUANTILE,
) -> dict[str, float]:
    """Per-vantage *window* tolerances, the pipeline's expected format.

    Pollution per unrouted /24 is pooled over each vantage's views
    (all days of the window) before the percentile is taken — "for
    each vantage point and each time frame", as the paper puts it.
    Hence the tolerance rises with window length (up to ~4 packets/day
    x 7 days in the paper's setting).
    """
    by_vantage: dict[str, list] = {}
    for view in views:
        by_vantage.setdefault(view.vantage, []).append(view.aggregates())
    pooled = {}
    for vantage, aggregates in by_vantage.items():
        blocks, (pkts,) = aggregate_sums(
            np.concatenate([agg.src_blocks for agg in aggregates]),
            np.concatenate([agg.src_packets for agg in aggregates]),
        )
        pooled[vantage] = (blocks, pkts)
    return _tolerances(pooled, unrouted_blocks, quantile)


def tolerances_from_accumulator(
    accumulator: "PrefixAccumulator",
    unrouted_blocks: np.ndarray,
    quantile: float = DEFAULT_QUANTILE,
) -> dict[str, float]:
    """Per-vantage window tolerances from streamed aggregates.

    Identical to :func:`tolerances_for_views` on the same traffic: the
    accumulator keeps raw (unfiltered) per-source-/24 packet sums per
    vantage, which is exactly the pooled quantity the batch path
    computes from each view's aggregates.
    """
    return _tolerances(
        accumulator.vantage_source_blocks(), unrouted_blocks, quantile
    )

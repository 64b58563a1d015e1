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
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.net.blocksets import as_sorted_unique, block_runs, sorted_in_runs

if TYPE_CHECKING:
    from repro.core.accum import PrefixAccumulator

DEFAULT_QUANTILE = 0.9999


class BaselineRuns(NamedTuple):
    """An unrouted baseline as its maximal runs of consecutive blocks:
    two /8s are two runs, however many /24s they hold."""

    #: The runs' edges, ``start, end, start, end, ...``, each run
    #: ``[start, end)`` (:func:`~repro.net.blocksets.sorted_in_runs`).
    edges: np.ndarray
    #: Blocks in the baseline, the length of the zero-padded counts.
    size: int


def baseline_runs(unrouted_blocks: np.ndarray) -> BaselineRuns:
    """The :class:`BaselineRuns` of a baseline given as block ids (any
    order, repeats allowed)."""
    blocks = as_sorted_unique(unrouted_blocks)
    if len(blocks) == 0:
        raise ValueError("need unrouted baseline blocks")
    return BaselineRuns(np.column_stack(block_runs(blocks)).ravel(), len(blocks))


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


def tolerances_from_accumulator(
    accumulator: "PrefixAccumulator",
    unrouted: "np.ndarray | BaselineRuns",
    quantile: float = DEFAULT_QUANTILE,
) -> dict[str, float]:
    """Per-vantage *window* tolerances, the pipeline's expected format.

    Pollution per unrouted /24 is pooled over each vantage's folded
    views (all days of the window) before the percentile is taken —
    "for each vantage point and each time frame", as the paper puts it.
    Hence the tolerance rises with window length (up to ~4 packets/day
    x 7 days in the paper's setting).  The pooled input is the
    accumulator's raw (before the ignored-sender filter) per-source-/24
    packet sums per vantage; the percentile runs over *all* baseline
    blocks, the unseen ones as zeros — most of the distribution, which
    is why the tolerance is usually 0-2 packets.

    ``unrouted`` is the baseline's block ids or, derived once by the
    caller, their :func:`baseline_runs`.  A vantage's sorted source
    blocks inside the baseline are one slice per run.
    """
    if not 0.0 < quantile <= 1.0:
        raise ValueError(f"quantile out of range: {quantile}")
    runs = unrouted if isinstance(unrouted, BaselineRuns) else (
        baseline_runs(unrouted)
    )
    tolerances: dict[str, float] = {}
    for vantage, (blocks, pkts) in accumulator.vantage_source_blocks().items():
        inside = sorted_in_runs(blocks, runs.edges)
        tolerances[vantage] = _zero_padded_quantile(
            pkts[inside], runs.size, quantile
        )
    return tolerances

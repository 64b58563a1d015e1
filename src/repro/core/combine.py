"""Multi-day and multi-vantage composition helpers (paper Sections 6-7).

The pipeline itself pools arbitrary view sets (a cumulative-day series
is one run over the growing pool); this module adds the compositions
the paper reports on: per-day series and the stability recommendation
of Section 7.1 (trust a prefix only if it is inferred dark on several
days).
"""

from __future__ import annotations

import numpy as np

from repro.bgp.rib import RoutingTable
from repro.core.pipeline import PipelineConfig, PipelineResult, run_pipeline
from repro.net.blocksets import sorted_in_at_least
from repro.vantage.sampling import VantageDayView


def per_day_results(
    views_by_day: dict[int, list[VantageDayView]],
    routing: RoutingTable,
    config: PipelineConfig | None = None,
) -> dict[int, PipelineResult]:
    """Independent single-day inferences (the Figure 8 series)."""
    return {
        day: run_pipeline(views, routing, config)
        for day, views in sorted(views_by_day.items())
    }


def stable_dark_blocks(
    daily: dict[int, "PipelineResult | np.ndarray"], min_days: int = 2
) -> np.ndarray:
    """Blocks inferred dark on at least ``min_days`` of the window.

    The paper's stability recommendation: prefer prefixes that recur
    across days over one-day sightings.  ``daily`` maps each day to a
    :class:`PipelineResult` or a bare array of dark block ids.
    """
    if min_days < 1:
        raise ValueError("min_days must be >= 1")
    return sorted_in_at_least(
        [
            result.dark_blocks if hasattr(result, "dark_blocks") else result
            for result in daily.values()
        ],
        min_days,
    )

"""Day-to-day variability of inferred prefixes (paper Section 7.1, Figure 8)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.metatelescope import MetaTelescope
from repro.vantage.sampling import VantageDayView


@dataclass(frozen=True, slots=True)
class DailySeries:
    """One line of Figure 8: per-day inferred counts for a vantage set."""

    label: str
    days: list[int]
    counts: list[int]

    def weekend_uplift(self) -> float:
        """Mean weekend count over mean weekday count (> 1 expected).

        Days are campaign-relative: the paper's week starts Monday
        April 24, so days 5 and 6 are the weekend.
        """
        weekday = [c for d, c in zip(self.days, self.counts) if d % 7 < 5]
        weekend = [c for d, c in zip(self.days, self.counts) if d % 7 >= 5]
        if not weekday or not weekend:
            return float("nan")
        return float(np.mean(weekend) / np.mean(weekday))


def daily_series(
    label: str,
    views_by_day: dict[int, list[VantageDayView]],
    telescope: MetaTelescope,
    use_spoofing_tolerance: bool = False,
) -> DailySeries:
    """Independent per-day inferences for one vantage set."""
    days = sorted(views_by_day)
    counts = []
    for day in days:
        result = telescope.infer(
            views_by_day[day], use_spoofing_tolerance=use_spoofing_tolerance,
            refine=False,
        )
        counts.append(result.pipeline.num_dark())
    return DailySeries(label=label, days=days, counts=counts)

"""Stability of the meta-telescope prefix set across days.

Section 9: "Our results show that the set of meta-telescope prefixes
is quite stable for a couple of days.  However, the set ... will vary
when the observation window increases in duration and traffic
conditions change rapidly."  These metrics quantify that claim:
pairwise Jaccard similarity between the daily sets, day-over-day
retention, and the survival curve (how much of day 0's set is still
inferred after k days).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.net.blocksets import (
    as_sorted_unique,
    sorted_intersection,
    sorted_union,
)


@dataclass(frozen=True)
class StabilityReport:
    """Stability metrics over an ordered sequence of daily dark sets."""

    days: tuple[int, ...]
    jaccard_matrix: np.ndarray
    #: retention[k] = |day_k ∩ day_{k-1}| / |day_{k-1}| (index 0 unused).
    retention: np.ndarray
    #: survival[k] = |day_0 ∩ day_k| / |day_0|.
    survival: np.ndarray

    def adjacent_similarity(self) -> float:
        """Mean Jaccard similarity of consecutive days."""
        values = [
            self.jaccard_matrix[i, i + 1]
            for i in range(len(self.days) - 1)
        ]
        return float(np.mean(values)) if values else 1.0


def stability_report(daily_sets: dict[int, np.ndarray]) -> StabilityReport:
    """Compute the stability metrics for per-day inferred dark sets."""
    if not daily_sets:
        raise ValueError("need at least one day")
    days = tuple(sorted(daily_sets))
    sets = [as_sorted_unique(daily_sets[day]) for day in days]
    size = len(days)
    matrix = np.eye(size)
    for i in range(size):
        for j in range(i + 1, size):
            union = len(sorted_union(sets[i], sets[j]))
            shared = len(sorted_intersection(sets[i], sets[j]))
            matrix[i, j] = matrix[j, i] = shared / union if union else 1.0
    retention = np.ones(size)
    for k in range(1, size):
        previous = sets[k - 1]
        retention[k] = (
            len(sorted_intersection(previous, sets[k])) / len(previous)
            if len(previous)
            else 1.0
        )
    survival = np.ones(size)
    first = sets[0]
    for k in range(size):
        survival[k] = (
            len(sorted_intersection(first, sets[k])) / len(first)
            if len(first)
            else 1.0
        )
    return StabilityReport(
        days=days, jaccard_matrix=matrix, retention=retention, survival=survival
    )

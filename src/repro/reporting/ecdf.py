"""Empirical CDFs (Figures 7, 16, 17)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Ecdf:
    """An empirical distribution over a 1-D sample."""

    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "values", np.sort(np.asarray(self.values, dtype=np.float64))
        )

    def at(self, x: float) -> float:
        """P(X <= x)."""
        if len(self.values) == 0:
            return 0.0
        return float(np.searchsorted(self.values, x, side="right") / len(self.values))


def render_ecdf_rows(
    ecdfs: dict[str, Ecdf], grid: np.ndarray
) -> list[list[object]]:
    """Table rows: one per grid point, one column per ECDF."""
    rows: list[list[object]] = []
    for x in grid:
        row: list[object] = [float(x)]
        for label in ecdfs:
            row.append(f"{ecdfs[label].at(float(x)):.3f}")
        rows.append(row)
    return rows

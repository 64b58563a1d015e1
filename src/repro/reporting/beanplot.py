"""Text rendering of bean-plot data (Figures 11, 12, 18-20).

A bean plot compares one value (port activity share) across groups;
in text form each port becomes a row of horizontal bars, one per group,
scaled to the maximum share in the matrix.
"""

from __future__ import annotations

import numpy as np

_BAR = "▁▂▃▄▅▆▇█"
#: Characters per bar cell.
_WIDTH = 12


def render_bean_rows(
    ports: list[int],
    groups: list[str],
    matrix: np.ndarray,
) -> str:
    """Render a port x group share matrix as aligned bar rows."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.shape != (len(ports), len(groups)):
        raise ValueError("matrix shape must be (ports, groups)")
    peak = matrix.max() if matrix.size else 1.0
    if peak <= 0:
        peak = 1.0
    lines = [
        "port".rjust(6)
        + "  "
        + "  ".join(group.center(_WIDTH) for group in groups)
    ]
    for row, port in enumerate(ports):
        cells = []
        for column in range(len(groups)):
            share = matrix[row, column]
            filled = int(round(share / peak * _WIDTH))
            bar = ("█" * filled).ljust(_WIDTH)
            cells.append(bar)
        lines.append(f"{port:>6}  " + "  ".join(cells))
    return "\n".join(lines)

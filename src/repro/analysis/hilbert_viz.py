"""Hilbert-map rendering of inferred dark space (paper Figures 3, 5, 6).

The maps are rendered as text grids (one character per /24 for small
curves, or density-downsampled for large ones) plus PGM images for
tooling that wants pixels.  The precision statistic the paper reads off
Figure 3 — how many coloured pixels fall inside the known telescope's
box — is computed exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.net.hilbert import HilbertCurve
from repro.net.ipv4 import Prefix


@dataclass(frozen=True, slots=True)
class HilbertMap:
    """A rendered Hilbert view of one covering prefix."""

    base: Prefix
    grid: np.ndarray  # (side, side) ints: 0 empty, 1 dark, 2 reference

    def dark_pixels(self) -> int:
        """Number of inferred-dark cells."""
        return int((self.grid == 1).sum())


def hilbert_grid(
    base: Prefix,
    dark_blocks: np.ndarray,
    reference_blocks: np.ndarray | None = None,
) -> HilbertMap:
    """Rasterise dark (and optional reference) blocks under ``base``.

    Cells default to 0; inferred-dark blocks become 1; reference-only
    blocks (e.g. a known telescope's extent) become 2; blocks that are
    both stay 1 (dark wins, like the paper's colour overlay).
    """
    curve = HilbertCurve.for_prefix(base)
    first = base.first_block()
    last = first + base.num_blocks() - 1

    def inside(blocks: np.ndarray) -> np.ndarray:
        blocks = np.asarray(blocks, dtype=np.int64)
        return blocks[(blocks >= first) & (blocks <= last)]

    grid = np.zeros((curve.side, curve.side), dtype=np.int64)
    if reference_blocks is not None:
        ref = inside(reference_blocks)
        if len(ref):
            x, y = curve.d2xy_array(ref - first)
            grid[y, x] = 2
    dark = inside(dark_blocks)
    if len(dark):
        x, y = curve.d2xy_array(dark - first)
        grid[y, x] = 1
    return HilbertMap(base=base, grid=grid)


def precision_inside_reference(
    base: Prefix, dark_blocks: np.ndarray, reference_blocks: np.ndarray
) -> tuple[int, int]:
    """(dark pixels inside the reference, dark pixels outside).

    Figure 3's headline: "almost all blue pixels fall within this
    area ... a few, i.e. 5, outside".
    """
    first = base.first_block()
    last = first + base.num_blocks() - 1
    dark = np.asarray(dark_blocks, dtype=np.int64)
    dark = dark[(dark >= first) & (dark <= last)]
    inside = np.isin(dark, np.asarray(reference_blocks, dtype=np.int64))
    return int(inside.sum()), int((~inside).sum())


def render_hilbert_ascii(
    hilbert_map: HilbertMap, max_side: int = 64
) -> str:
    """Character rendering: '#' dark, '.' reference-only, ' ' empty.

    Grids larger than ``max_side`` are density-downsampled; a cell
    shows '#' if any constituent pixel is dark.
    """
    grid = hilbert_map.grid
    side = grid.shape[0]
    if side > max_side:
        step = side // max_side
        trimmed = grid[: max_side * step, : max_side * step]
        pooled = trimmed.reshape(max_side, step, max_side, step)
        dark = (pooled == 1).any(axis=(1, 3))
        reference = (pooled == 2).any(axis=(1, 3))
        grid = np.where(dark, 1, np.where(reference, 2, 0))
    symbols = np.array([" ", "#", "."])
    return "\n".join("".join(row) for row in symbols[grid])

"""Hilbert-curve indexing of IPv4 /24 space.

The paper's Figures 3, 5 and 6 plot /24 blocks on Hilbert maps, the
standard visualisation for IPv4 space: consecutive addresses stay close
on the plane, so contiguous telescopes appear as solid rectangles.

A curve of *order* n maps the integers ``0 .. 4**n - 1`` onto an
``2**n x 2**n`` grid.  A /8 contains ``2**16`` /24 blocks, hence order 8
(256 x 256 pixels, one per /24); the whole IPv4 space needs order 12.
"""

from __future__ import annotations

import numpy as np

from repro.net.ipv4 import Prefix


class HilbertCurve:
    """A Hilbert curve of the given order, with vectorised conversions."""

    def __init__(self, order: int) -> None:
        if not 1 <= order <= 16:
            raise ValueError(f"unsupported Hilbert order: {order}")
        self.order = order
        self.side = 1 << order
        self.length = self.side * self.side

    @classmethod
    def for_prefix(cls, prefix: Prefix) -> "HilbertCurve":
        """Curve sized so each /24 inside ``prefix`` is one cell.

        ``prefix`` must be /24 or shorter and cover a power-of-4 number
        of blocks (i.e. have even ``24 - length``), which holds for the
        /8 and /16 views used in the paper.
        """
        bits = 24 - prefix.length
        if bits < 0 or bits % 2:
            raise ValueError(
                f"prefix /{prefix.length} does not map onto a square grid"
            )
        return cls(bits // 2)

    def d2xy_array(self, distance: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised distance -> (x, y).  Classic bit-twiddling walk."""
        d = np.asarray(distance, dtype=np.int64)
        if (d < 0).any() or (d >= self.length).any():
            raise ValueError("distance out of range for this curve")
        x = np.zeros_like(d)
        y = np.zeros_like(d)
        t = d.copy()
        s = 1
        while s < self.side:
            rx = 1 & (t // 2)
            ry = 1 & (t ^ rx)
            x, y = _rotate(s, x, y, rx, ry)
            x = x + s * rx
            y = y + s * ry
            t //= 4
            s *= 2
        return x, y

    def xy2d_array(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Vectorised (x, y) -> distance."""
        x = np.asarray(x, dtype=np.int64).copy()
        y = np.asarray(y, dtype=np.int64).copy()
        if (x < 0).any() or (x >= self.side).any():
            raise ValueError("x out of range for this curve")
        if (y < 0).any() or (y >= self.side).any():
            raise ValueError("y out of range for this curve")
        d = np.zeros_like(x)
        s = self.side // 2
        while s > 0:
            rx = ((x & s) > 0).astype(np.int64)
            ry = ((y & s) > 0).astype(np.int64)
            d += s * s * ((3 * rx) ^ ry)
            x, y = _rotate(s, x, y, rx, ry)
            s //= 2
        return d


def _rotate(
    s: int, x: np.ndarray, y: np.ndarray, rx: np.ndarray, ry: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Rotate/flip the quadrant as the Hilbert recursion requires."""
    swap = ry == 0
    flip = swap & (rx == 1)
    new_x = np.where(flip, s - 1 - x, x)
    new_y = np.where(flip, s - 1 - y, y)
    out_x = np.where(swap, new_y, new_x)
    out_y = np.where(swap, new_x, new_y)
    return out_x, out_y

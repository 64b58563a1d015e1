"""Country-level IP geolocation (MaxMind GeoLite2 style).

Maps /24 blocks to two-letter country codes.  Built from the world's
ground truth with a configurable per-block error rate, since commercial
geolocation is imperfect at country granularity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geo.countries import COUNTRIES


@dataclass(frozen=True, slots=True)
class GeoDatabase:
    """Sorted /24 block ids with aligned country codes."""

    blocks: np.ndarray
    country_codes: np.ndarray  # array of 2-char strings, aligned with blocks

    def __post_init__(self) -> None:
        blocks = np.asarray(self.blocks, dtype=np.int64)
        codes = np.asarray(self.country_codes)
        if len(blocks) != len(codes):
            raise ValueError("blocks and country codes must align")
        order = np.argsort(blocks, kind="stable")
        object.__setattr__(self, "blocks", blocks[order])
        object.__setattr__(self, "country_codes", codes[order])

    def lookup(self, blocks: np.ndarray) -> np.ndarray:
        """Country codes for ``blocks``; '??' for unknown blocks."""
        queried = np.asarray(blocks, dtype=np.int64)
        index = np.searchsorted(self.blocks, queried)
        index = np.clip(index, 0, max(len(self.blocks) - 1, 0))
        result = np.full(len(queried), "??", dtype=self.country_codes.dtype)
        if len(self.blocks):
            hit = self.blocks[index] == queried
            result[hit] = self.country_codes[index[hit]]
        return result

    @classmethod
    def from_ground_truth(
        cls,
        blocks: np.ndarray,
        true_codes: np.ndarray,
        error_rate: float,
        rng: np.random.Generator,
    ) -> "GeoDatabase":
        """A noisy copy of the ground-truth mapping."""
        if not 0.0 <= error_rate < 1.0:
            raise ValueError(f"error_rate out of range: {error_rate}")
        codes = np.asarray(true_codes).copy()
        wrong = rng.random(len(codes)) < error_rate
        if wrong.any():
            pool = np.array([c.code for c in COUNTRIES], dtype=codes.dtype)
            codes[wrong] = rng.choice(pool, size=int(wrong.sum()))
        return cls(blocks=np.asarray(blocks, dtype=np.int64), country_codes=codes)

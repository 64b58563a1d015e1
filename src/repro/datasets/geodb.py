"""Country-level IP geolocation (MaxMind GeoLite2 style).

Maps /24 blocks to two-letter country codes.  Built from the world's
ground truth with a configurable per-block error rate, since commercial
geolocation is imperfect at country granularity.

Codes are validated where they are loaded: a code that is not exactly
two ASCII characters is a ``ValueError`` at construction, not a
truncated or unencodable country column in every snapshot published
later.  The database keeps each code twice, sorted by block: as ``str``
for the analysis callers (:meth:`GeoDatabase.lookup`) and as the two
bytes a snapshot stores (:meth:`GeoDatabase.codes_of_blocks`), so a
publish gathers bytes instead of encoding text per row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.geo.countries import COUNTRIES
from repro.net.blocksets import align_sorted

#: Code of a block the database does not know, as text and as bytes.
UNKNOWN = "??"
UNKNOWN_BYTES = UNKNOWN.encode()


@dataclass(frozen=True, slots=True)
class GeoDatabase:
    """Sorted /24 block ids with aligned country codes."""

    blocks: np.ndarray
    country_codes: np.ndarray  # array of 2-char strings, aligned with blocks
    #: ``country_codes`` as ``S2`` bytes, the snapshot column's dtype.
    code_bytes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        blocks = np.asarray(self.blocks, dtype=np.int64)
        codes = np.asarray(self.country_codes).astype(np.str_)
        if len(blocks) != len(codes):
            raise ValueError("blocks and country codes must align")
        # One row of two UCS-4 code points per code; a shorter code pads
        # with NUL and a longer one is cut, which the length test catches.
        fixed = codes.astype("U2")
        points = fixed.view(np.uint32).reshape(-1, 2)
        bad = (np.char.str_len(codes) != 2) | (points > 0x7F).any(axis=1)
        if bad.any():
            row = int(np.flatnonzero(bad)[0])
            raise ValueError(
                f"country code {str(codes[row])!r} of block {int(blocks[row])} "
                "is not two ASCII characters"
            )
        order = np.argsort(blocks, kind="stable")
        object.__setattr__(self, "blocks", blocks[order])
        object.__setattr__(self, "country_codes", fixed[order])
        object.__setattr__(
            self, "code_bytes", points.astype(np.uint8).view("S2")[order, 0]
        )

    def lookup(self, blocks: np.ndarray) -> np.ndarray:
        """Country codes for ``blocks``; '??' for unknown blocks."""
        return self._gather(blocks, self.country_codes, UNKNOWN)

    def codes_of_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """:meth:`lookup`'s codes as ``S2`` bytes; b'??' for unknown
        blocks."""
        return self._gather(blocks, self.code_bytes, UNKNOWN_BYTES)

    def _gather(self, blocks: np.ndarray, table: np.ndarray, unknown):
        queried = np.asarray(blocks, dtype=np.int64)
        if not len(self.blocks):
            return np.full(len(queried), unknown, dtype=table.dtype)
        positions, hit = align_sorted(queried, self.blocks)
        return np.where(hit, table[positions], unknown)

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

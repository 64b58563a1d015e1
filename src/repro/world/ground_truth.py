"""Ground-truth per-/24 state of the synthetic Internet.

The real Internet's usage is unknown — the paper can only lower-bound
its false positives.  The simulator, in contrast, knows exactly which
/24s are used, which is what makes the evaluation benches (confusion
matrices, Figure 10b's false-positive curve) possible.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from repro.bgp.asinfo import ASType
from repro.geo.countries import COUNTRIES, Continent


class BlockState(IntEnum):
    """True usage of a /24 block."""

    DARK = 0          #: advertised, completely unused
    ACTIVE = 1        #: hosts users/servers, normal volumes
    MIXED = 2         #: some addresses used, some dark
    CDN_SINK = 3      #: active content network with ACK-only inbound at IXPs
    TELESCOPE = 4     #: dedicated dark space of an operational telescope
    LOW_ACTIVE = 5    #: active but below the labelling volume cut


#: States that count as "truly unused" for false-positive accounting.
DARK_STATES = (BlockState.DARK, BlockState.TELESCOPE)
#: States with at least one active address (liveness datasets may list them).
ACTIVE_STATES = (
    BlockState.ACTIVE,
    BlockState.MIXED,
    BlockState.CDN_SINK,
    BlockState.LOW_ACTIVE,
)

_COUNTRY_CODES = np.array([c.code for c in COUNTRIES])
_COUNTRY_CONTINENTS = np.array([c.continent.value for c in COUNTRIES])
_CODE_TO_INDEX = {c.code: i for i, c in enumerate(COUNTRIES)}
_AS_TYPES = tuple(ASType)
_TYPE_TO_INDEX = {t: i for i, t in enumerate(_AS_TYPES)}


@dataclass
class BlockIndex:
    """Sorted registry of all announced /24 blocks with their attributes.

    Everything is columnar and aligned with ``blocks`` (sorted unique
    block ids): origin ASN, country index (into
    :data:`repro.geo.countries.COUNTRIES`), AS-type index and ground
    truth :class:`BlockState`.
    """

    blocks: np.ndarray
    asn: np.ndarray
    country_index: np.ndarray
    type_index: np.ndarray
    state: np.ndarray

    def __post_init__(self) -> None:
        self.blocks = np.asarray(self.blocks, dtype=np.int64)
        if not np.all(np.diff(self.blocks) > 0):
            raise ValueError("blocks must be sorted and unique")
        for name in ("asn", "country_index", "type_index", "state"):
            column = np.asarray(getattr(self, name))
            if len(column) != len(self.blocks):
                raise ValueError(f"column {name} misaligned")
            setattr(self, name, column.astype(np.int32))

    def __len__(self) -> int:
        return len(self.blocks)

    # -- lookups -------------------------------------------------------

    def positions(self, blocks: np.ndarray) -> np.ndarray:
        """Index into the columns per queried block; -1 when unknown."""
        queried = np.asarray(blocks, dtype=np.int64)
        index = np.searchsorted(self.blocks, queried)
        index = np.clip(index, 0, max(len(self.blocks) - 1, 0))
        result = np.full(len(queried), -1, dtype=np.int64)
        if len(self.blocks):
            hit = self.blocks[index] == queried
            result[hit] = index[hit]
        return result

    def asn_of(self, blocks: np.ndarray) -> np.ndarray:
        """Origin ASN per block; -1 for unknown blocks."""
        pos = self.positions(blocks)
        result = np.full(len(pos), -1, dtype=np.int32)
        hit = pos >= 0
        result[hit] = self.asn[pos[hit]]
        return result

    def state_of(self, blocks: np.ndarray) -> np.ndarray:
        """Ground-truth state per block; -1 for unknown blocks."""
        pos = self.positions(blocks)
        result = np.full(len(pos), -1, dtype=np.int32)
        hit = pos >= 0
        result[hit] = self.state[pos[hit]]
        return result

    def country_codes_of(self, blocks: np.ndarray) -> np.ndarray:
        """Two-letter country code per block ('??' when unknown)."""
        pos = self.positions(blocks)
        result = np.full(len(pos), "??", dtype="<U2")
        hit = pos >= 0
        result[hit] = _COUNTRY_CODES[self.country_index[pos[hit]]]
        return result

    def continents_of(self, blocks: np.ndarray) -> np.ndarray:
        """Continent code (e.g. 'NA') per block ('??' when unknown)."""
        pos = self.positions(blocks)
        result = np.full(len(pos), "??", dtype="<U3")
        hit = pos >= 0
        result[hit] = _COUNTRY_CONTINENTS[self.country_index[pos[hit]]]
        return result

    def as_types_of(self, blocks: np.ndarray) -> list[ASType | None]:
        """Ground-truth business type per block."""
        pos = self.positions(blocks)
        return [None if p < 0 else _AS_TYPES[self.type_index[p]] for p in pos]

    # -- selections ----------------------------------------------------

    def blocks_in_state(self, *states: BlockState) -> np.ndarray:
        """All blocks whose ground truth is one of ``states``."""
        mask = np.isin(self.state, [int(s) for s in states])
        return self.blocks[mask]

    def truly_dark_blocks(self) -> np.ndarray:
        """Blocks with no active address at all."""
        return self.blocks_in_state(*DARK_STATES)

    def truly_active_blocks(self) -> np.ndarray:
        """Blocks with at least one active address."""
        return self.blocks_in_state(*ACTIVE_STATES)

    def blocks_of_continent(self, continent: Continent) -> np.ndarray:
        """All blocks geolocated (ground truth) in ``continent``."""
        mask = _COUNTRY_CONTINENTS[self.country_index] == continent.value
        return self.blocks[mask]


def country_index_of(code: str) -> int:
    """Index of a country code in the global registry."""
    return _CODE_TO_INDEX[code]


def type_index_of(as_type: ASType) -> int:
    """Index of an AS type in the canonical tuple."""
    return _TYPE_TO_INDEX[as_type]

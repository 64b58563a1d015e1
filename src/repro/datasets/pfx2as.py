"""CAIDA-style prefix-to-AS mapping, derived from daily RIB snapshots.

The map is flattened once, when it is built, into a sorted partition of
the /24 axis: every block between two neighbouring bounds has the same
longest-prefix match, so a lookup is one ``searchsorted`` over the
bounds and a gather, however many prefix lengths are announced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bgp.rib import RoutingTable
from repro.net.family import IPV4

#: Blocks are /24s: the axis is ``[0, 2**24)``.
BLOCK_LENGTH = IPV4.block_prefix_length
NUM_BLOCKS = IPV4.num_blocks


@dataclass(frozen=True)
class PrefixToAsMap:
    """Longest-prefix-match map from /24 block ids to origin ASN.

    The semantics are CAIDA pfx2as's:

    * a block maps to the origin of the most specific announced prefix
      of length /24 or shorter that covers it;
    * among announcements of the same prefix, the smallest origin wins;
    * prefixes longer than a /24 are ignored, and a block nothing
      covers maps to -1.

    ``bounds`` are the sorted interval starts of a partition of the
    axis (``bounds[0] == 0``); ``owner[i]`` is the origin of every block
    in ``[bounds[i], bounds[i + 1])``, -1 where nothing covers.  The last
    interval runs past ``2**24`` and is always uncovered, so
    ``owner[-1] == -1`` answers for blocks off the axis on either side.
    """

    bounds: np.ndarray
    owner: np.ndarray

    @classmethod
    def from_routing_table(cls, table: RoutingTable) -> "PrefixToAsMap":
        """Build from a daily RIB union, mirroring CAIDA's pipeline."""
        announced = [
            (a.prefix.length, IPV4.block_of_ip(a.prefix.network), a.origin_asn)
            for a in table.announcements
            if a.prefix.length <= BLOCK_LENGTH
        ]
        columns = np.array(announced, dtype=np.int64).reshape(-1, 3).T
        return cls(*_flatten(*columns))

    def asns_of_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """Vectorised longest-prefix match; -1 for unmapped blocks."""
        queried = np.asarray(blocks, dtype=np.int64)
        return self.owner[np.searchsorted(self.bounds, queried, side="right") - 1]


def _flatten(
    lengths: np.ndarray, starts: np.ndarray, origins: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(bounds, owner)`` of the prefixes ``starts``/``lengths`` (first
    block and length, /24 or shorter) announced by ``origins``."""
    # Smallest origin first within each prefix, and keep that row.
    order = np.lexsort((origins, starts, lengths))
    lengths, starts, origins = lengths[order], starts[order], origins[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (lengths[1:] != lengths[:-1]) | (starts[1:] != starts[:-1])
    lengths, starts, origins = lengths[first], starts[first], origins[first]
    ends = starts + (1 << (BLOCK_LENGTH - lengths))

    # Every start and end is a bound; paint the intervals between them
    # from the least specific length to the most, so the most specific
    # cover of each interval paints it last.  Prefixes of one length are
    # disjoint, so each length is one probe.
    bounds = np.unique(np.concatenate([[0, NUM_BLOCKS], starts, ends]))
    owner = np.full(len(bounds), -1, dtype=np.int64)
    for length in np.unique(lengths):
        level = lengths == length
        level_starts, level_ends = starts[level], ends[level]
        index = np.searchsorted(level_starts, bounds, side="right") - 1
        covered = (index >= 0) & (bounds < level_ends[np.maximum(index, 0)])
        owner[covered] = origins[level][index[covered]]

    # Neighbouring intervals with one owner are one interval.
    changes = np.ones(len(bounds), dtype=bool)
    changes[1:] = owner[1:] != owner[:-1]
    return bounds[changes], owner[changes]

"""Block sets and CIDR aggregation.

Operators do not ship 300 k-line /24 lists to routers: contiguous runs
of meta-telescope /24s (whole dark /9s, telescope ranges) aggregate
into a handful of covering prefixes.  This module provides the minimal
CIDR cover of a /24 block set and the set algebra operators a serving
pipeline needs.
"""

from __future__ import annotations

import numpy as np

from repro.net.family import IPV4, AddressFamily
from repro.net.ipv4 import Prefix


def aggregate_blocks(
    blocks: np.ndarray, family: AddressFamily = IPV4
) -> list[Prefix]:
    """Minimal CIDR cover of a set of block ids.

    Returns the unique list of prefixes (each at the family's block
    length or shorter) that covers exactly the given blocks — the
    standard greedy alignment walk: at each position emit the largest
    aligned prefix that fits inside the remaining run.
    """
    unique = np.unique(np.asarray(blocks, dtype=np.int64))
    if len(unique) == 0:
        return []
    block_length = family.block_prefix_length
    shift = family.ip_block_shift
    prefix_type = family.prefix_type
    prefixes: list = []
    # Split into maximal contiguous runs.
    boundaries = np.flatnonzero(np.diff(unique) != 1)
    starts = np.concatenate([[0], boundaries + 1])
    ends = np.concatenate([boundaries, [len(unique) - 1]])
    for start_index, end_index in zip(starts, ends):
        position = int(unique[start_index])
        remaining = int(unique[end_index]) - position + 1
        while remaining > 0:
            # Largest power-of-two size that is aligned and fits.
            align = position & -position if position else remaining
            size = min(_floor_pow2(remaining), align if align else remaining)
            length = block_length - size.bit_length() + 1
            prefixes.append(prefix_type(position << shift, length))
            position += size
            remaining -= size
    return prefixes


def expand_prefixes(
    prefixes: list[Prefix], family: AddressFamily = IPV4
) -> np.ndarray:
    """Inverse of :func:`aggregate_blocks`: all covered block ids."""
    if not prefixes:
        return np.empty(0, dtype=np.int64)
    block_length = family.block_prefix_length
    parts = [
        np.arange(p.first_block(), p.first_block() + p.num_blocks(), dtype=np.int64)
        for p in prefixes
        if p.length <= block_length
    ]
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate(parts))


def as_sorted_unique(values: np.ndarray) -> np.ndarray:
    """``values`` as a strictly ascending int64 array.

    The verdict tail's data model: every block/key set between the fold
    and the delta store is sorted-unique, so set algebra is a linear
    merge or a ``searchsorted`` probe.  This is the one place the
    invariant is established for input that does not carry it by
    construction — verified in O(n), never trusted; only input that
    fails the check pays for ``np.unique``.
    """
    values = np.asarray(values, dtype=np.int64).ravel()
    if len(values) < 2 or bool(np.all(values[1:] > values[:-1])):
        return values
    return np.unique(values)


def align_sorted(
    values: np.ndarray, table: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(positions, hit)``: where each of ``values`` sits in ``table``.

    ``table`` must be sorted-unique; ``values`` may come in any order
    and carry duplicates.  ``table[positions[hit]] == values[hit]``, and
    ``positions`` of a miss is a valid but meaningless row — one probe
    answers membership, difference, intersection and row alignment.
    """
    values = np.asarray(values)
    if len(table) == 0:
        return np.zeros(values.shape, np.intp), np.zeros(values.shape, bool)
    positions = np.searchsorted(table, values)
    np.minimum(positions, len(table) - 1, out=positions)
    return positions, table[positions] == values


def sorted_member_mask(values: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Per-element membership of ``values`` in a **sorted** ``table``.

    Equivalent to ``np.isin(values, table)`` but probes the table with
    one ``searchsorted`` instead of hashing both sides — much faster on
    the pipeline's hot path, where every id table (unique IPs, blocks)
    is already sorted.  ``values`` may be unsorted and carry duplicates.
    """
    return align_sorted(values, table)[1]


def sorted_union(*sets: np.ndarray) -> np.ndarray:
    """Sorted-unique union of any number of block sets."""
    parts = [part for part in map(as_sorted_unique, sets) if len(part)]
    if len(parts) < 2:
        return parts[0] if parts else np.empty(0, dtype=np.int64)
    # Timsort over already-ascending runs is a linear merge.
    merged = np.sort(np.concatenate(parts), kind="stable")
    first = np.ones(len(merged), dtype=bool)
    np.not_equal(merged[1:], merged[:-1], out=first[1:])
    return merged[first]


def sorted_difference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted-unique ``a`` without the members of ``b``."""
    a = as_sorted_unique(a)
    return a[~sorted_member_mask(a, as_sorted_unique(b))]


def sorted_intersection(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted-unique members of both ``a`` and ``b``."""
    a = as_sorted_unique(a)
    return a[sorted_member_mask(a, as_sorted_unique(b))]


def _floor_pow2(value: int) -> int:
    return 1 << (value.bit_length() - 1)


class BlockSet:
    """An immutable set of blocks with set algebra and CIDR export."""

    def __init__(self, blocks: np.ndarray, family: AddressFamily = IPV4) -> None:
        self._blocks = np.unique(np.asarray(blocks, dtype=np.int64))
        self.family = family

    @classmethod
    def from_prefixes(
        cls, prefixes: list[Prefix], family: AddressFamily = IPV4
    ) -> "BlockSet":
        """Build from covering prefixes."""
        return cls(expand_prefixes(prefixes, family), family)

    @property
    def blocks(self) -> np.ndarray:
        """The sorted block ids."""
        return self._blocks

    def __len__(self) -> int:
        return len(self._blocks)

    def __contains__(self, block: int) -> bool:
        index = int(np.searchsorted(self._blocks, block))
        return index < len(self._blocks) and self._blocks[index] == block

    def union(self, other: "BlockSet") -> "BlockSet":
        """Set union."""
        return BlockSet(np.union1d(self._blocks, other._blocks), self.family)

    def intersection(self, other: "BlockSet") -> "BlockSet":
        """Set intersection."""
        return BlockSet(np.intersect1d(self._blocks, other._blocks), self.family)

    def difference(self, other: "BlockSet") -> "BlockSet":
        """Set difference (blocks in self but not other)."""
        return BlockSet(np.setdiff1d(self._blocks, other._blocks), self.family)

    def jaccard(self, other: "BlockSet") -> float:
        """Jaccard similarity (for day-over-day stability metrics)."""
        union = len(np.union1d(self._blocks, other._blocks))
        if union == 0:
            return 1.0
        return len(np.intersect1d(self._blocks, other._blocks)) / union

    def to_cidrs(self) -> list[Prefix]:
        """Minimal CIDR cover."""
        return aggregate_blocks(self._blocks, self.family)

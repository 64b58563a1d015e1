"""Block sets, CIDR aggregation and the block-span table.

Operators do not ship 300 k-line /24 lists to routers: contiguous runs
of meta-telescope /24s (whole dark /9s, telescope ranges) aggregate
into a handful of covering prefixes.  This module provides the minimal
CIDR cover of a block set, the sorted set algebra a serving pipeline
needs, and the one table of prefix block spans: :func:`block_spans`
builds it from prefixes of either family, :func:`interval_covered_mask`
probes it.  The BGP RIB (step 5, "Globally Routed") and the
special-purpose registry (step 4) both answer their questions with it.
"""

from __future__ import annotations

from typing import Iterable, Sequence

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
    prefixes: list[Prefix] = []
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
            prefixes.append(Prefix(position << shift, length, family.ip_bits))
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


def sorted_in_at_least(sets: Sequence[np.ndarray], count: int) -> np.ndarray:
    """Sorted-unique members of at least ``count`` of ``sets`` (blocks
    dark on at least ``count`` days, say)."""
    sets = [as_sorted_unique(members) for members in sets]
    union = sorted_union(*sets)
    counts = np.zeros(len(union), dtype=np.int64)
    for members in sets:
        counts += sorted_member_mask(union, members)
    return union[counts >= count]


def block_spans(prefixes: Iterable[Prefix]) -> tuple[np.ndarray, np.ndarray]:
    """The sorted ``(starts, ends)`` block spans of ``prefixes``, for
    :func:`interval_covered_mask`.

    A prefix spans the blocks of its first and last address, so one
    longer than a block spans (taints) its containing block.  Ends are
    a cumulative max, so a nested prefix never shadows its cover during
    the probe.  Each prefix reads the block shift of its own family.
    """
    spans = []
    for prefix in prefixes:
        shift = prefix.family.ip_block_shift
        spans.append((prefix.network >> shift, prefix.last_ip() >> shift))
    spans.sort()
    starts = np.array([lo for lo, _ in spans], dtype=np.int64)
    ends = np.array([hi for _, hi in spans], dtype=np.int64)
    if len(ends):
        ends = np.maximum.accumulate(ends)
    return starts, ends


def interval_covered_mask(
    starts: np.ndarray, ends: np.ndarray, blocks: np.ndarray
) -> np.ndarray:
    """Which ``blocks`` fall inside the sorted, cumulative-max intervals."""
    blocks = np.asarray(blocks, dtype=np.int64)
    if len(starts) == 0:
        return np.zeros(blocks.shape, dtype=bool)
    idx = np.searchsorted(starts, blocks, side="right") - 1
    valid = idx >= 0
    clamped = np.where(valid, idx, 0)
    return valid & (blocks <= ends[clamped])


def _floor_pow2(value: int) -> int:
    return 1 << (value.bit_length() - 1)


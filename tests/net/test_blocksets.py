"""Tests for block sets and CIDR aggregation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.blocksets import (
    BlockSet,
    aggregate_blocks,
    align_sorted,
    as_sorted_unique,
    expand_prefixes,
    sorted_difference,
    sorted_intersection,
    sorted_member_mask,
    sorted_union,
)
from repro.net.ipv4 import Prefix, parse_ip

from _factories import same


class TestAggregation:
    def test_single_block(self):
        prefixes = aggregate_blocks(np.array([parse_ip("10.0.0.0") >> 8]))
        assert [str(p) for p in prefixes] == ["10.0.0.0/24"]

    def test_aligned_run(self):
        base = parse_ip("10.0.0.0") >> 8
        prefixes = aggregate_blocks(np.arange(base, base + 256))
        assert [str(p) for p in prefixes] == ["10.0.0.0/16"]

    def test_unaligned_run(self):
        base = parse_ip("10.0.1.0") >> 8
        prefixes = aggregate_blocks(np.arange(base, base + 3))
        assert [str(p) for p in prefixes] == ["10.0.1.0/24", "10.0.2.0/23"]

    def test_disjoint_runs(self):
        a = parse_ip("10.0.0.0") >> 8
        b = parse_ip("11.0.0.0") >> 8
        prefixes = aggregate_blocks(np.array([a, a + 1, b]))
        assert [str(p) for p in prefixes] == ["10.0.0.0/23", "11.0.0.0/24"]

    def test_empty(self):
        assert aggregate_blocks(np.array([])) == []

    def test_duplicates_ignored(self):
        base = parse_ip("10.0.0.0") >> 8
        prefixes = aggregate_blocks(np.array([base, base]))
        assert len(prefixes) == 1

    @given(
        st.lists(
            st.integers(min_value=0, max_value=5000), min_size=0, max_size=200
        )
    )
    @settings(max_examples=80)
    def test_cover_exactness(self, block_list):
        blocks = np.array(block_list, dtype=np.int64)
        prefixes = aggregate_blocks(blocks)
        covered = expand_prefixes(prefixes)
        assert covered.tolist() == np.unique(blocks).tolist()

    @given(
        st.integers(min_value=0, max_value=1 << 20),
        st.integers(min_value=1, max_value=600),
    )
    @settings(max_examples=60)
    def test_run_cover_is_small(self, start, length):
        # A contiguous run of n blocks needs at most 2*log2(n)+2 prefixes.
        blocks = np.arange(start, start + length)
        prefixes = aggregate_blocks(blocks)
        assert len(prefixes) <= 2 * length.bit_length() + 2
        assert expand_prefixes(prefixes).tolist() == blocks.tolist()


class TestBlockSet:
    def test_membership(self):
        block_set = BlockSet(np.array([9, 5, 9]))
        assert len(block_set) == 2
        assert len(block_set.intersection(BlockSet(np.array([5])))) == 1
        assert len(block_set.intersection(BlockSet(np.array([6])))) == 0

    def test_algebra(self):
        a = BlockSet(np.array([1, 2, 3]))
        b = BlockSet(np.array([3, 4]))
        assert len(a.intersection(b)) == 1
        assert a.intersection(b).jaccard(BlockSet(np.array([3]))) == 1.0

    def test_jaccard(self):
        a = BlockSet(np.array([1, 2]))
        b = BlockSet(np.array([2, 3]))
        assert a.jaccard(b) == pytest.approx(1 / 3)
        assert BlockSet(np.array([])).jaccard(BlockSet(np.array([]))) == 1.0

    def test_cidr_roundtrip(self):
        base = parse_ip("10.0.0.0") >> 8
        original = np.arange(base, base + 7)
        rebuilt = expand_prefixes(aggregate_blocks(original))
        assert rebuilt.tolist() == original.tolist()


#: Raw key lists: a narrow range (duplicates and overlaps are the norm)
#: mixed with IPv6-sized keys above 2**32; unsorted, possibly empty.
KEYS = st.lists(
    st.one_of(
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=2**32, max_value=2**32 + 40),
        st.integers(min_value=2**62, max_value=2**63 - 1),
    ),
    max_size=60,
)


class TestSortedAlgebra:
    """The sorted-set primitives against the numpy set routines, which
    survive in this repository only as oracles: whatever the input —
    empty, single, duplicated, unsorted — the answer is normalised."""

    @given(KEYS)
    @settings(max_examples=120)
    def test_as_sorted_unique(self, keys):
        same(as_sorted_unique(keys), np.unique(np.array(keys, dtype=np.int64)))

    def test_as_sorted_unique_verifies_instead_of_copying(self):
        ascending = np.array([1, 5, 2**40], dtype=np.int64)
        assert np.shares_memory(as_sorted_unique(ascending), ascending)
        for broken in ([1, 1, 2], [2, 1], [1, 3, 2]):
            same(as_sorted_unique(np.array(broken)), np.unique(broken))
        same(as_sorted_unique(np.array([3, 1], dtype=np.uint64)), np.array([1, 3]))
        same(as_sorted_unique(()), np.empty(0, dtype=np.int64))

    @given(st.lists(KEYS, max_size=5))
    @settings(max_examples=120)
    def test_union(self, sets):
        arrays = [np.array(keys, dtype=np.int64) for keys in sets]
        expected = np.unique(np.concatenate([np.empty(0, np.int64), *arrays]))
        same(sorted_union(*sets), expected)
        if len(arrays) == 2:
            same(sorted_union(*sets), np.union1d(*arrays))

    @given(KEYS, KEYS)
    @settings(max_examples=120)
    def test_difference_and_intersection(self, a, b):
        left, right = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
        same(sorted_difference(a, b), np.setdiff1d(left, right))
        same(sorted_intersection(a, b), np.intersect1d(left, right))

    @given(KEYS, KEYS)
    @settings(max_examples=120)
    def test_align_and_member_mask(self, values, table):
        values = np.array(values, dtype=np.int64)  # any order, duplicates
        table = np.unique(np.array(table, dtype=np.int64))
        positions, hit = align_sorted(values, table)
        same(hit, np.isin(values, table))
        same(sorted_member_mask(values, table), hit)
        assert positions.shape == values.shape
        same(table[positions[hit]], values[hit])
        if len(table):  # a miss still indexes a valid row
            assert positions.min(initial=0) >= 0
            assert positions.max(initial=0) < len(table)

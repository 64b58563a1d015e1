"""Tests for block sets, CIDR aggregation and the block-span table."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stability import stability_report
from repro.net.blocksets import (
    aggregate_blocks,
    align_sorted,
    as_sorted_unique,
    block_spans,
    expand_prefixes,
    interval_covered_mask,
    sorted_difference,
    sorted_in_at_least,
    sorted_intersection,
    sorted_member_mask,
    sorted_union,
)
from repro.net.family import IPV6
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
    """A block set is a sorted-unique int64 array; the algebra is the
    sorted primitives, and CIDR export is :func:`aggregate_blocks`."""

    def test_membership(self):
        block_set = as_sorted_unique(np.array([9, 5, 9]))
        assert len(block_set) == 2
        assert len(sorted_intersection(block_set, np.array([5]))) == 1
        assert len(sorted_intersection(block_set, np.array([6]))) == 0

    def test_algebra(self):
        a, b = np.array([1, 2, 3]), np.array([3, 4])
        assert sorted_intersection(a, b).tolist() == [3]
        assert sorted_union(a, b).tolist() == [1, 2, 3, 4]
        assert sorted_difference(a, b).tolist() == [1, 2]

    def test_jaccard(self):
        daily = {0: np.array([1, 2]), 1: np.array([2, 3])}
        report = stability_report(daily)
        assert report.jaccard_matrix[0, 1] == pytest.approx(1 / 3)
        empty = stability_report({0: np.array([]), 1: np.array([])})
        assert empty.jaccard_matrix[0, 1] == 1.0

    def test_cidr_roundtrip(self):
        base = parse_ip("10.0.0.0") >> 8
        original = np.arange(base, base + 7)
        rebuilt = expand_prefixes(aggregate_blocks(original))
        assert rebuilt.tolist() == original.tolist()

    @given(st.lists(st.lists(st.integers(0, 30), max_size=12), max_size=5),
           st.integers(1, 6))
    @settings(max_examples=120)
    def test_in_at_least(self, sets, count):
        # Against a count over Python sets: unsorted, duplicated input.
        expected = sorted(
            block for block in set().union(*map(set, sets))
            if sum(block in members for members in sets) >= count
        )
        found = sorted_in_at_least([np.array(s, np.int64) for s in sets], count)
        same(found, np.array(expected, dtype=np.int64))


class TestBlockSpans:
    def test_spans_of_both_families(self):
        v4 = [Prefix.parse("10.0.0.0/23"), Prefix.parse("10.0.1.128/25")]
        v6 = [IPV6.parse_prefix("2001:db8::/47"), IPV6.parse_prefix("::1/128")]
        starts, ends = block_spans(v4)
        first = parse_ip("10.0.0.0") >> 8
        # The /25 taints its block and nests inside the /23's span.
        assert (starts.tolist(), ends.tolist()) == (
            [first, first + 1], [first + 1, first + 1]
        )
        starts, ends = block_spans(v6)
        site = v6[0].first_block()
        assert (starts.tolist(), ends.tolist()) == ([0, site], [0, site + 1])
        assert starts.dtype == ends.dtype == np.int64

    def test_empty(self):
        starts, ends = block_spans([])
        assert len(starts) == len(ends) == 0
        assert interval_covered_mask(starts, ends, np.array([0, 5])).tolist() == [
            False, False
        ]


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

"""Tests for the prefix trie, its block-coverage table and the
longest-prefix match the prefix-to-AS map serves."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.rib import Announcement, RoutingTable
from repro.datasets.pfx2as import PrefixToAsMap
from repro.net.ipv4 import MAX_IPV4, Prefix, parse_ip
from repro.net.blocksets import interval_covered_mask
from repro.net.trie import PrefixTrie


def build(*entries):
    trie = PrefixTrie()
    for text, value in entries:
        trie.insert(Prefix.parse(text), value)
    return trie


def stored(trie):
    """``{prefix text: value}`` of everything the trie holds."""
    return {str(prefix): value for prefix, value in trie.items()}


def covered(trie, blocks):
    """The trie's block-coverage answer, as the routing table probes it."""
    starts, ends = trie.block_intervals()
    return interval_covered_mask(starts, ends, np.asarray(blocks, dtype=np.int64))


def origins(*entries):
    """A longest-prefix-match lookup of the origin of each block."""
    table = RoutingTable([
        Announcement(prefix=Prefix.parse(text), origin_asn=asn)
        for text, asn in entries
    ])
    mapping = PrefixToAsMap.from_routing_table(table)
    return lambda *ips: mapping.asns_of_blocks(
        np.array([parse_ip(ip) >> 8 for ip in ips])
    ).tolist()


class TestInsertLookup:
    def test_exact(self):
        trie = build(("10.0.0.0/8", "a"))
        assert stored(trie) == {"10.0.0.0/8": "a"}

    def test_len_counts_unique_prefixes(self):
        trie = build(("10.0.0.0/8", 1), ("10.0.0.0/16", 2), ("10.0.0.0/8", 3))
        assert len(stored(trie)) == 2

    def test_replace_value(self):
        trie = build(("10.0.0.0/8", 1), ("10.0.0.0/8", 2))
        assert stored(trie) == {"10.0.0.0/8": 2}

    def test_longest_match_prefers_specific(self):
        lookup = origins(("10.0.0.0/8", 1), ("10.1.0.0/16", 2))
        assert lookup("10.1.2.3", "10.2.0.1") == [2, 1]

    def test_longest_match_miss(self):
        assert origins(("10.0.0.0/8", 1))("11.0.0.1") == [-1]

    def test_default_route(self):
        assert origins(("0.0.0.0/0", 7))("203.0.113.9") == [7]

    def test_items_ordered(self):
        trie = build(("11.0.0.0/8", 2), ("10.0.0.0/8", 1), ("10.1.0.0/16", 3))
        prefixes = [str(p) for p, _ in trie.items()]
        assert prefixes == ["10.0.0.0/8", "10.1.0.0/16", "11.0.0.0/8"]


class TestBlockCoverage:
    def test_covers_block_inside(self):
        trie = build(("10.0.0.0/8", 1))
        assert covered(trie, [parse_ip("10.9.9.0") >> 8])[0]

    def test_covers_block_outside(self):
        trie = build(("10.0.0.0/8", 1))
        assert not covered(trie, [parse_ip("11.0.0.0") >> 8])[0]

    def test_long_prefix_does_not_cover_block(self):
        trie = build(("10.0.0.0/25", 1))
        assert not covered(trie, [parse_ip("10.0.0.0") >> 8])[0]

    def test_long_prefix_with_short_cover(self):
        trie = build(("10.0.0.0/25", 1), ("10.0.0.0/16", 2))
        assert covered(trie, [parse_ip("10.0.0.0") >> 8])[0]

    def test_covered_mask_matches_scalar(self):
        trie = build(("10.0.0.0/8", 1), ("192.0.0.0/16", 2))
        blocks = np.array(
            [
                parse_ip(a) >> 8
                for a in ("10.1.1.0", "11.0.0.0", "192.0.5.0", "192.1.0.0")
            ]
        )
        assert covered(trie, blocks).tolist() == [True, False, True, False]

    def test_covered_mask_with_nested_prefixes(self):
        # A nested more-specific must not shadow its covering prefix.
        trie = build(("10.0.0.0/8", 1), ("10.0.0.0/16", 2), ("10.128.0.0/9", 3))
        probe = np.array([parse_ip("10.64.0.0") >> 8, parse_ip("10.200.0.0") >> 8])
        assert covered(trie, probe).tolist() == [True, True]

    def test_covered_mask_empty_trie(self):
        trie = PrefixTrie()
        assert covered(trie, [1, 2, 3]).tolist() == [False] * 3

    def test_cache_invalidated_on_insert(self):
        trie = build(("10.0.0.0/8", 1))
        assert not covered(trie, [parse_ip("11.0.0.0") >> 8])[0]
        trie.insert(Prefix.parse("11.0.0.0/8"), 2)
        assert covered(trie, [parse_ip("11.0.0.0") >> 8])[0]


@st.composite
def prefixes(draw):
    length = draw(st.integers(min_value=0, max_value=24))
    address = draw(st.integers(min_value=0, max_value=MAX_IPV4))
    return Prefix.from_ip(address, length)


class TestProperties:
    @given(st.lists(prefixes(), min_size=1, max_size=20), st.data())
    @settings(max_examples=60)
    def test_mask_agrees_with_scalar_lookup(self, prefix_list, data):
        trie = PrefixTrie()
        for i, prefix in enumerate(prefix_list):
            trie.insert(prefix, i)
        block = data.draw(st.integers(min_value=0, max_value=2**24 - 1))
        scalar = any(
            prefix.length <= 24 and prefix.contains_ip(block << 8)
            for prefix, _ in trie.items()
        )
        assert bool(covered(trie, [block])[0]) == scalar

    @given(st.lists(prefixes(), min_size=1, max_size=20), st.data())
    @settings(max_examples=60)
    def test_lpm_is_a_cover(self, prefix_list, data):
        # Origin i for prefix i: the answer names a covering prefix, and
        # no longer one covers the block.
        table = RoutingTable([
            Announcement(prefix=prefix, origin_asn=i)
            for i, prefix in enumerate(prefix_list)
        ])
        block = data.draw(st.integers(min_value=0, max_value=2**24 - 1))
        (origin,) = PrefixToAsMap.from_routing_table(table).asns_of_blocks(
            np.array([block])
        ).tolist()
        covering = [p for p in prefix_list if p.contains_ip(block << 8)]
        if origin < 0:
            assert not covering
        else:
            assert prefix_list[origin].contains_ip(block << 8)
            assert prefix_list[origin].length == max(p.length for p in covering)

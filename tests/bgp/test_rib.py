"""Tests for RIB emulation and the Route Views collector."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.rib import (
    DUMPS_PER_DAY,
    Announcement,
    RibSnapshot,
    RouteViewsCollector,
    RoutingTable,
)
from repro.datasets.pfx2as import PrefixToAsMap
from repro.net.family import IPV4, IPV6
from repro.net.ipv4 import Prefix, parse_ip


def ann(text, asn, stable=True):
    return Announcement(prefix=Prefix.parse(text), origin_asn=asn, stable=stable)


class TestRoutingTable:
    def test_origin_lookup(self):
        table = RoutingTable([ann("10.0.0.0/8", 65001), ann("10.1.0.0/16", 65002)])
        blocks = np.array([parse_ip(ip) >> 8 for ip in ("10.1.2.3", "10.2.0.1", "11.0.0.1")])
        origins = PrefixToAsMap.from_routing_table(table).asns_of_blocks(blocks)
        assert origins.tolist() == [65002, 65001, -1]

    def test_origin_of_block(self):
        table = RoutingTable([ann("10.0.0.0/8", 65001)])
        block = parse_ip("10.5.5.0") >> 8
        assert PrefixToAsMap.from_routing_table(table).asns_of_blocks(
            np.array([block])
        ).tolist() == [65001]

    def test_routed_block(self):
        table = RoutingTable([ann("10.0.0.0/8", 65001)])
        blocks = np.array([parse_ip("10.0.1.0") >> 8, parse_ip("11.0.0.0") >> 8])
        assert table.routed_mask(blocks).tolist() == [True, False]

    def test_routed_mask(self):
        table = RoutingTable([ann("10.0.0.0/8", 65001)])
        blocks = np.array([parse_ip("10.0.0.0") >> 8, parse_ip("12.0.0.0") >> 8])
        assert table.routed_mask(blocks).tolist() == [True, False]

    def test_len(self):
        assert len(RoutingTable([ann("10.0.0.0/8", 1)]).announcements) == 1

    def test_empty_table_routes_nothing_in_either_family(self):
        # The prefixes carry the family: a table with none has no spans.
        table = RoutingTable([])
        for family in (IPV4, IPV6):
            blocks = np.array([0, 1, family.num_blocks - 1], dtype=np.int64)
            assert table.routed_mask(blocks).tolist() == [False] * 3


def covered_by_loop(announcements, family, block):
    """Is ``block`` entirely inside an announced prefix?  A plain reading:
    some prefix no longer than a block agrees with the block's network
    address on its first ``length`` bits."""
    address = block << (family.ip_bits - family.block_prefix_length)
    for announcement in announcements:
        prefix = announcement.prefix
        if prefix.length > family.block_prefix_length:
            continue
        shift = family.ip_bits - prefix.length
        if address >> shift == prefix.network >> shift:
            return True
    return False


#: Longest prefix drawn per family: past the block length on both sides,
#: so longer-than-block announcements (which cover no whole block) occur.
MAX_DRAWN_LENGTH = {IPV4.name: 32, IPV6.name: 64}


@st.composite
def routing_cases(draw, family):
    """Announcements clustered on a few anchor addresses — nested,
    adjacent and overlapping — and the blocks on and beside their edges."""
    bits = family.ip_bits
    anchors = draw(st.lists(
        st.integers(0, (1 << bits) - 1), min_size=1, max_size=3
    ))
    announcements = []
    for asn in range(draw(st.integers(0, 12))):
        anchor = draw(st.sampled_from(anchors))
        length = draw(st.integers(0, MAX_DRAWN_LENGTH[family.name]))
        shift = bits - length
        # -1 / +1: the adjacent prefix of the same length.
        index = ((anchor >> shift) + draw(st.sampled_from((-1, 0, 0, 1)))) % (
            1 << length
        )
        announcements.append(Announcement(
            prefix=Prefix(index << shift, length, bits), origin_asn=asn
        ))
    block_shift = bits - family.block_prefix_length
    edges = {anchor >> block_shift for anchor in anchors}
    for announcement in announcements:
        prefix = announcement.prefix
        first = prefix.network >> block_shift
        last = (prefix.network | ((1 << (bits - prefix.length)) - 1)) >> block_shift
        edges.update((first - 1, first, last, last + 1))
    blocks = sorted(b for b in edges if 0 <= b < family.num_blocks)
    blocks += draw(st.lists(
        st.integers(0, family.num_blocks - 1), max_size=4
    ))
    return announcements, np.array(blocks, dtype=np.int64)


class TestRoutedMaskAgainstALoop:
    """``routed_mask`` against :func:`covered_by_loop`, which shares no
    code with the interval tables the table probes."""

    @pytest.mark.parametrize("family", [IPV4, IPV6], ids=lambda f: f.name)
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_routed_mask_matches_a_loop_over_announcements(self, family, data):
        announcements, blocks = data.draw(routing_cases(family))
        table = RoutingTable(announcements)
        expected = [
            covered_by_loop(announcements, family, int(block)) for block in blocks
        ]
        assert table.routed_mask(blocks).tolist() == expected


class TestCollector:
    def test_stable_in_every_dump(self):
        collector = RouteViewsCollector([ann("10.0.0.0/8", 1)])
        for dump_index in range(DUMPS_PER_DAY):
            snapshot = collector.dump(0, dump_index)
            assert isinstance(snapshot, RibSnapshot)
            assert len(snapshot.table.announcements) == 1

    def test_flapping_missing_sometimes(self):
        collector = RouteViewsCollector(
            [ann("10.0.0.0/8", 1), ann("10.0.0.0/9", 1, stable=False)], seed=3
        )
        sizes = {len(collector.dump(0, i).table.announcements) for i in range(DUMPS_PER_DAY)}
        assert sizes == {1, 2}  # the flapper disappears in some dumps

    def test_daily_union_includes_flappers(self):
        collector = RouteViewsCollector(
            [ann("10.0.0.0/8", 1), ann("10.0.0.0/9", 1, stable=False)], seed=3
        )
        daily = collector.daily_table(0)
        assert len(daily.announcements) == 2

    def test_dump_hours(self):
        collector = RouteViewsCollector([ann("10.0.0.0/8", 1)])
        assert collector.dump(2, 3).dump_hour == 2 * 24 + 6

    def test_dump_index_validated(self):
        collector = RouteViewsCollector([ann("10.0.0.0/8", 1)])
        with pytest.raises(ValueError):
            collector.dump(0, DUMPS_PER_DAY)

    def test_deterministic(self):
        a = RouteViewsCollector([ann("10.0.0.0/9", 1, stable=False)], seed=9)
        b = RouteViewsCollector([ann("10.0.0.0/9", 1, stable=False)], seed=9)
        for i in range(DUMPS_PER_DAY):
            assert len(a.dump(1, i).table.announcements) == len(
                b.dump(1, i).table.announcements
            )

    def test_daily_prefixes(self):
        collector = RouteViewsCollector([ann("10.0.0.0/8", 1)])
        daily = collector.daily_table(0).announcements
        assert [str(a.prefix) for a in daily] == ["10.0.0.0/8"]

"""Tests for RIB emulation and the Route Views collector."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.events import EventedCollector, RouteEvent
from repro.bgp.rib import (
    DUMPS_PER_DAY,
    Announcement,
    RibSnapshot,
    RouteViewsCollector,
    RoutingTable,
)
from repro.core.metatelescope import MetaTelescope
from repro.datasets.pfx2as import PrefixToAsMap
from repro.faults import StaleRib, StaleRibCollector
from repro.net.blocksets import block_spans
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


def union_by_dict(announcements, seed, day):
    """A day's table read plainly, without :meth:`RouteViewsCollector.dump`:
    each of the 12 dumps draws ``rng.random()`` per flapping announcement
    from its own seeded stream, and a dict keyed by ``(prefix, origin)``
    takes the dumps in order."""
    seen = {}
    for dump_index in range(DUMPS_PER_DAY):
        rng = np.random.default_rng((seed, 0x51B, day, dump_index))
        for announcement in announcements:
            if announcement.stable or rng.random() < 0.5:
                seen[(announcement.prefix, announcement.origin_asn)] = announcement
    return list(seen.values())


@st.composite
def collectors(draw):
    """Announcements over a small pool of prefixes and origins, so
    ``(prefix, origin)`` pairs repeat, some differing only in
    ``stable``; either family; all-stable, all-flapping and empty
    collectors included."""
    family = draw(st.sampled_from([IPV4, IPV6]))
    bits = family.ip_bits
    pool = draw(st.lists(
        st.integers(0, MAX_DRAWN_LENGTH[family.name]).flatmap(
            lambda length: st.integers(0, (1 << length) - 1).map(
                lambda index: Prefix(index << (bits - length), length, bits)
            )
        ),
        min_size=1, max_size=6,
    ))
    stability = draw(st.sampled_from(["mixed", "stable", "flapping"]))
    announcements = []
    for _ in range(draw(st.integers(0, 24))):
        stable = {
            "mixed": draw(st.booleans()), "stable": True, "flapping": False
        }[stability]
        announcements.append(Announcement(
            prefix=draw(st.sampled_from(pool)),
            origin_asn=draw(st.integers(1, 3)),
            stable=stable,
        ))
    return announcements, draw(st.integers(0, 2**16)), draw(st.integers(0, 400))


class TestDailyTableAgainstADictUnion:
    """``daily_table`` takes the union on a presence matrix; the dict
    and the per-announcement draws of :func:`union_by_dict` are the
    plain reading it must agree with, announcement for announcement."""

    @given(case=collectors())
    @settings(max_examples=300, deadline=None)
    def test_daily_table_matches_the_dict_union(self, case):
        announcements, seed, day = case
        table = RouteViewsCollector(announcements, seed=seed).daily_table(day)
        expected = union_by_dict(announcements, seed, day)
        assert len(table.announcements) == len(expected)
        # The very objects: a duplicate key keeps its last value.
        assert all(a is b for a, b in zip(table.announcements, expected))

    def test_duplicates_take_the_first_place_and_the_last_value(self):
        flapper = ann("10.0.0.0/9", 1, stable=False)
        stable = ann("10.0.0.0/9", 1)
        other = ann("10.128.0.0/9", 2)
        for announcements in (
            [flapper, other, stable], [stable, other, flapper], [other, flapper],
        ):
            for day in range(20):
                table = RouteViewsCollector(announcements, seed=4).daily_table(day)
                expected = union_by_dict(announcements, 4, day)
                assert list(table.announcements) == expected
                assert all(a is b for a, b in zip(table.announcements, expected))

    def test_a_flapper_missing_from_the_first_dumps_comes_last(self):
        announcements = [ann("10.0.0.0/9", 1, stable=False), ann("10.0.0.0/8", 1)]
        orders = set()
        for day in range(40):
            table = RouteViewsCollector(announcements, seed=3).daily_table(day)
            orders.add(tuple(str(a.prefix) for a in table.announcements))
        assert orders >= {
            ("10.0.0.0/9", "10.0.0.0/8"), ("10.0.0.0/8", "10.0.0.0/9")
        }

    def test_dump_holds_the_same_draws(self):
        # dump() and daily_table() read one presence rule: every
        # announcement of any dump is in the day, and the day holds
        # nothing no dump holds.
        announcements = [
            ann(f"10.{i}.0.0/16", i, stable=i % 3 == 0) for i in range(30)
        ]
        collector = RouteViewsCollector(announcements, seed=11)
        for day in range(3):
            dumped = {
                a
                for dump_index in range(DUMPS_PER_DAY)
                for a in collector.dump(day, dump_index).table.announcements
            }
            assert set(collector.daily_table(day).announcements) == dumped
            assert dumped == set(union_by_dict(announcements, 11, day))


class TestRoutingForDaysAgainstADictUnion:
    @given(case=collectors(), days=st.lists(st.integers(0, 9), min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_union_over_any_days(self, case, days):
        announcements, seed, _ = case
        collector = RouteViewsCollector(announcements, seed=seed)
        seen = {}
        for day in sorted(set(days)):
            for a in union_by_dict(announcements, seed, day):
                seen[(a.prefix, a.origin_asn)] = a
        telescope = MetaTelescope(collector=collector)
        table = telescope.routing_for_days(days)
        assert list(table.announcements) == list(seen.values())
        assert all(a is b for a, b in zip(table.announcements, seen.values()))

    def test_one_day_is_the_days_own_table_in_a_telescopes_cache(self):
        collector = RouteViewsCollector(
            [ann("10.0.0.0/8", 1), ann("10.0.0.0/9", 1, stable=False)], seed=3
        )
        telescope = MetaTelescope(collector=collector)
        table = telescope.routing_for_days([2, 2])
        assert table is telescope.routing_for_days([2])
        assert table.announcements == collector.daily_table(2).announcements
        # A fresh telescope does its own routing work.
        assert MetaTelescope(collector=collector).routing_for_days([2]) is not table


def spans_by_loop(prefixes):
    """The per-prefix reading of :func:`block_spans`: each prefix's
    first and last address shifted to blocks, sorted as pairs, ends
    a running maximum."""
    spans = sorted(
        (p.network >> p.family.ip_block_shift, p.last_ip() >> p.family.ip_block_shift)
        for p in prefixes
    )
    ends, high = [], None
    for _, end in spans:
        high = end if high is None else max(high, end)
        ends.append(high)
    return [start for start, _ in spans], ends


EDGE_PREFIXES = [
    "0.0.0.0/0", "10.0.0.0/8", "10.0.0.0/9", "10.1.0.0/16", "10.1.2.0/24",
    "10.1.2.128/25", "10.1.2.3/32", "255.255.255.255/32", "10.0.0.0/8",
]
EDGE_PREFIXES_V6 = [
    "::/0", "2001:db8::/32", "2001:db8::/48", "2001:db8:0:1::/64",
    "2001:db8::1/128", "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff/128",
]


class TestBlockSpansAgainstALoop:
    @pytest.mark.parametrize("family", [IPV4, IPV6], ids=lambda f: f.name)
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_spans_match_the_loop(self, family, data):
        announcements, _ = data.draw(routing_cases(family))
        prefixes = [a.prefix for a in announcements]
        starts, ends = block_spans(prefixes)
        assert starts.dtype == ends.dtype == np.int64
        assert (starts.tolist(), ends.tolist()) == spans_by_loop(prefixes)
        covering = [
            p for p in prefixes if p.length <= family.block_prefix_length
        ]
        starts, ends = block_spans(prefixes, whole_blocks_only=True)
        assert (starts.tolist(), ends.tolist()) == spans_by_loop(covering)

    def test_edges_of_both_families(self):
        v4 = [IPV4.parse_prefix(text) for text in EDGE_PREFIXES]
        v6 = [IPV6.parse_prefix(text) for text in EDGE_PREFIXES_V6]
        for prefixes in (v4, v6, v4 + v6, []):
            starts, ends = block_spans(prefixes)
            assert (starts.tolist(), ends.tolist()) == spans_by_loop(prefixes)
        starts, ends = block_spans(v6)
        # ::/0 spans every /48 site, and its end covers all that follow.
        assert (starts[0], ends[0]) == (0, IPV6.num_blocks - 1)
        assert set(ends.tolist()) == {IPV6.num_blocks - 1}
        # The /32, the /48 and the /64 and /128 it holds start one site.
        site = IPV6.parse_prefix("2001:db8::/48").first_block()
        assert int((starts == site).sum()) == 4


class TestWrappersOverTheCollector:
    """The stale-RIB and route-event proxies pass the collector's tables
    through as before."""

    @pytest.fixture()
    def collector(self):
        return RouteViewsCollector(
            [ann("10.0.0.0/8", 1), ann("10.0.0.0/9", 1, stable=False),
             ann("11.0.0.0/8", 2, stable=False)],
            seed=5,
        )

    def test_stale_rib_serves_the_lagged_days_table(self, collector):
        stale = StaleRibCollector(collector, [StaleRib(lag_days=2)])
        for day in range(6):
            lagged = max(0, day - 2)
            assert list(stale.daily_table(day).announcements) == union_by_dict(
                collector._announcements, 5, lagged
            )

    def test_route_events_join_the_days_table(self, collector):
        event = RouteEvent(
            prefix=Prefix.parse("10.4.0.0/16"), by_asn=64500, days=frozenset({1})
        )
        evented = EventedCollector(collector, [event])
        base = union_by_dict(collector._announcements, 5, 1)
        assert list(evented.daily_table(1).announcements) == [
            *base, event.announcement()
        ]
        assert list(evented.daily_table(0).announcements) == union_by_dict(
            collector._announcements, 5, 0
        )
        routing = MetaTelescope(collector=evented).routing_for_days([1])
        assert list(routing.announcements) == [*base, event.announcement()]

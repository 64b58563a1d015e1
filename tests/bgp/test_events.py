"""Tests for route events and the evented collector proxy."""

import pytest

from repro.bgp.events import EventedCollector, RouteEvent
from repro.net.ipv4 import Prefix


def event(days={1}, kind="leak", asn=64500):
    return RouteEvent(
        prefix=Prefix.parse("10.4.0.0/16"),
        by_asn=asn,
        days=frozenset(days),
        kind=kind,
    )


class TestRouteEvent:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            event(kind="withdrawal")

    def test_announcement_is_unstable(self):
        announcement = event().announcement()
        assert announcement.origin_asn == 64500
        assert announcement.stable is False

    def test_active_window(self):
        leak = event(days={1, 2})
        assert not leak.active_on(0)
        assert leak.active_on(1) and leak.active_on(2)
        assert not leak.active_on(3)


class TestEventedCollector:
    def test_event_days_gain_the_announcement(self, world):
        evented = EventedCollector(world.collector, [event(days={1})])
        base_day1 = world.collector.daily_table(1)
        day0 = evented.daily_table(0)
        day1 = evented.daily_table(1)
        assert len(day0.announcements) == len(
            world.collector.daily_table(0).announcements
        )
        assert len(day1.announcements) == len(base_day1.announcements) + 1
        assert Prefix.parse("10.4.0.0/16") in [a.prefix for a in day1.announcements]

    def test_daily_prefixes_derive_from_the_evented_table(self, world):
        evented = EventedCollector(world.collector, [event(days={0})])
        daily = evented.daily_table(0).announcements
        assert Prefix.parse("10.4.0.0/16") in [a.prefix for a in daily]

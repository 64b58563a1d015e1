"""Tests for degraded-mode online operation (policies, health, quarantine)."""

import numpy as np
import pytest

from repro.bgp.rib import Announcement, RouteViewsCollector
from repro.core.metatelescope import MetaTelescope
from repro.core.online import OnlineMetaTelescope
from repro.net.ipv4 import Prefix, parse_ip

from _factories import ip, make_view

BASE = parse_ip("20.0.0.0") >> 8


def make_online(**overrides):
    collector = RouteViewsCollector(
        [Announcement(Prefix.parse("20.0.0.0/8"), 65001)]
    )
    telescope = MetaTelescope(collector=collector)
    defaults = dict(
        telescope=telescope,
        window_days=3,
        min_stable_days=1,
        use_spoofing_tolerance=False,
    )
    defaults.update(overrides)
    return OnlineMetaTelescope(**defaults)


def day_views(day, blocks=(BASE,), invalid_rows=0):
    """One vantage-day; ``invalid_rows`` adds impossible records."""
    rows = [{"dst_ip": ip(b)} for b in blocks]
    rows.extend({"dst_ip": 0} for _ in range(invalid_rows))
    return [make_view(rows, vantage="V", day=day)]


class TestDayOrdering:
    def test_duplicate_day_rejected(self):
        online = make_online()
        online.update(0, day_views(0))
        with pytest.raises(ValueError, match="strictly increasing"):
            online.update(0, day_views(0))

    def test_out_of_order_day_rejected(self):
        online = make_online()
        online.update(5, day_views(5))
        with pytest.raises(ValueError, match="not after the last fed day 5"):
            online.update(3, day_views(3))

    def test_gaps_are_allowed(self):
        online = make_online()
        online.update(0, day_views(0))
        update = online.update(7, day_views(7))
        assert update.day == 7


class TestWindowEviction:
    def test_window_exactly_reached_keeps_all_days(self):
        online = make_online(window_days=3)
        for day in range(3):
            online.update(day, day_views(day))
        # Exactly window_days folded: nothing evicted yet.
        assert online.days_in_window() == [0, 1, 2]

    def test_one_past_the_boundary_evicts_exactly_one(self):
        online = make_online(window_days=3)
        for day in range(4):
            online.update(day, day_views(day))
        assert online.days_in_window() == [1, 2, 3]


class TestStrictPolicy:
    def test_empty_day_still_raises_by_default(self):
        online = make_online()
        assert online.policy == "strict"
        with pytest.raises(ValueError, match="need views"):
            online.update(0, [])

    def test_degraded_day_folds_unquestioned(self):
        online = make_online()
        update = online.update(0, day_views(0, invalid_rows=8))
        assert update.action == "inferred"
        assert update.staleness == 0
        assert update.quality.degraded(0.5)


class TestSkipPolicy:
    def test_degraded_day_skipped_and_flagged(self):
        online = make_online(policy="skip")
        online.update(0, day_views(0))
        before = online.current_prefixes().copy()
        update = online.update(1, day_views(1, invalid_rows=8))
        assert update.action == "skipped"
        assert update.staleness == 1
        assert online.days_in_window() == [0]  # day never entered the window
        assert np.array_equal(online.current_prefixes(), before)

    def test_empty_day_skipped(self):
        online = make_online(policy="skip")
        online.update(0, day_views(0))
        update = online.update(1, [])
        assert update.action == "skipped"
        assert update.serving_size == 1

    def test_clean_day_resets_staleness(self):
        online = make_online(policy="skip")
        online.update(0, day_views(0))
        online.update(1, [])
        update = online.update(2, day_views(2))
        assert update.action == "inferred"
        assert update.staleness == 0


class TestCarryPolicy:
    def test_empty_day_carries_serving_list(self):
        online = make_online(policy="carry")
        online.update(0, day_views(0))
        update = online.update(1, [])
        assert update.action == "carried"
        assert update.serving_size == 1
        assert BASE in online.current_prefixes()
        assert online.health_report().current_staleness == 1

    def test_degraded_day_still_folds(self):
        online = make_online(policy="carry")
        online.update(0, day_views(0))
        update = online.update(1, day_views(1, invalid_rows=8))
        assert update.action == "degraded"
        assert online.days_in_window() == [0, 1]
        assert update.staleness == 1

    def test_flapping_block_quarantined(self):
        online = make_online(policy="carry")
        online.update(0, day_views(0, blocks=(BASE, BASE + 1)))
        # Degraded day: BASE+1 vanishes from the daily dark set.
        update = online.update(1, day_views(1, blocks=(BASE,), invalid_rows=8))
        assert BASE + 1 in update.quarantined_blocks
        assert BASE + 1 not in online.current_prefixes()
        assert BASE in online.current_prefixes()

    def test_quarantine_released_after_clean_days(self):
        online = make_online(policy="carry")
        online.update(0, day_views(0, blocks=(BASE, BASE + 1)))
        online.update(1, day_views(1, blocks=(BASE,), invalid_rows=8))
        online.update(2, day_views(2, blocks=(BASE, BASE + 1)))
        assert BASE + 1 not in online.current_prefixes()  # 1 clean day of 2
        online.update(3, day_views(3, blocks=(BASE, BASE + 1)))
        assert BASE + 1 in online.current_prefixes()
        assert len(online.quarantined_blocks()) == 0

    def test_carried_list_never_expires(self):
        """Missing days carry the serving list forward however many there
        are; staleness only counts them."""
        online = make_online(policy="carry")
        online.update(0, day_views(0))
        for day in range(1, 5):
            update = online.update(day, [])
            assert update.serving_size == 1
            assert len(update.removed_blocks) == 0
            assert update.staleness == day
        assert online.current_prefixes().tolist() == [BASE]


class TestHealthReport:
    def test_records_every_day(self):
        online = make_online(policy="carry")
        online.update(0, day_views(0))
        online.update(1, [])
        online.update(2, day_views(2, invalid_rows=8))
        report = online.health_report()
        assert report.days_processed() == 3
        assert report.days_by_action() == {
            "inferred": 1, "carried": 1, "degraded": 1,
        }
        assert [record.day for record in report.records] == [0, 1, 2]
        assert max(record.staleness for record in report.records) == 2

    def test_reasons_surface_in_records(self):
        online = make_online(policy="carry")
        online.update(0, day_views(0))
        online.update(1, [])
        report = online.health_report()
        assert report.records[1].reasons == ("no views",)

    def test_ok_and_summary(self):
        online = make_online(policy="carry")
        online.update(0, day_views(0))
        assert online.health_report().ok()
        online.update(1, [])
        report = online.health_report()
        assert not report.ok()
        assert "staleness 1" in report.summary()

    def test_validation_of_new_knobs(self):
        with pytest.raises(ValueError, match="policy"):
            make_online(policy="yolo")


class TestQualityLearning:
    def test_volume_baseline_learned_from_clean_days(self):
        online = make_online(policy="skip")
        for day in range(3):
            online.update(day, day_views(day, blocks=(BASE, BASE + 1, BASE + 2)))
        # A day with a tiny fraction of the usual volume is degraded.
        update = online.update(3, day_views(3, blocks=(BASE,)))
        assert update.quality.volume_ratio is not None
        assert update.quality.volume_ratio < 0.5
        assert update.action == "skipped"

    def test_expected_views_learned(self):
        online = make_online(policy="carry")
        views = [
            make_view([{"dst_ip": ip(BASE)}], vantage="A", day=0),
            make_view([{"dst_ip": ip(BASE + 1)}], vantage="B", day=0),
        ]
        online.update(0, views)
        update = online.update(
            1, [make_view([{"dst_ip": ip(BASE)}], vantage="A", day=1)]
        )
        assert update.quality.expected_views == 2
        assert update.quality.num_views == 1

"""Tests for the fault injectors and seeded fault plans."""

import numpy as np
import pytest

from repro.faults import (
    CorruptedFields,
    DuplicatedRecords,
    FaultPlan,
    MisreportedSampling,
    SiteOutage,
    StaleRib,
    StaleRibCollector,
    TruncatedDay,
    standard_injector,
)
from repro.faults.quality import _duplicate_fraction, _invalid_fraction

from _factories import ip, make_view

BASE = 0x140000  # 20.0.0.0/24


def sample_view(rows=40, vantage="V", day=0, sampling_factor=1.0):
    return make_view(
        [{"dst_ip": ip(BASE + i % 7, host=1 + i % 200)} for i in range(rows)],
        vantage=vantage,
        day=day,
        sampling_factor=sampling_factor,
    )


def rng():
    return np.random.default_rng(42)


class TestInjectors:
    def test_site_outage_drops_the_view(self):
        view, detail = SiteOutage().inject(sample_view(), rng())
        assert view is None
        assert "dropped" in detail

    def test_truncation_keeps_a_prefix(self):
        original = sample_view(rows=40)
        view, _ = TruncatedDay(keep_fraction=0.25).inject(original, rng())
        assert len(view.flows) == 10
        # A prefix slice, not a sample: the first rows survive.
        assert np.array_equal(view.flows.dst_ip, original.flows.dst_ip[:10])

    def test_duplication_reemits_rows(self):
        original = sample_view(rows=40)
        view, _ = DuplicatedRecords(duplicate_fraction=0.5).inject(
            original, rng()
        )
        assert len(view.flows) == 60
        assert _duplicate_fraction(view.flows) > _duplicate_fraction(
            original.flows
        )

    def test_corruption_produces_impossible_rows(self):
        original = sample_view(rows=40)
        view, _ = CorruptedFields(corrupt_fraction=0.5).inject(original, rng())
        assert len(view.flows) == len(original.flows)
        assert _invalid_fraction(view.flows) > 0.3
        assert _invalid_fraction(original.flows) == 0.0

    def test_misreported_sampling_touches_only_the_factor(self):
        original = sample_view(sampling_factor=100.0)
        view, _ = MisreportedSampling(factor_multiplier=0.1).inject(
            original, rng()
        )
        assert view.sampling_factor == pytest.approx(10.0)
        assert np.array_equal(view.flows.packets, original.flows.packets)

    def test_targeting_by_day_and_vantage(self):
        injector = SiteOutage(days=frozenset({2}), vantages=frozenset({"A"}))
        assert injector.applies(2, "A")
        assert not injector.applies(1, "A")
        assert not injector.applies(2, "B")
        assert SiteOutage().applies(0, "anything")

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            TruncatedDay(keep_fraction=1.5)
        with pytest.raises(ValueError):
            DuplicatedRecords(duplicate_fraction=-0.1)
        with pytest.raises(ValueError):
            CorruptedFields(corrupt_fraction=2.0)
        with pytest.raises(ValueError):
            MisreportedSampling(factor_multiplier=0.0)
        with pytest.raises(ValueError):
            StaleRib(lag_days=-1)


class TestFaultPlan:
    def test_deterministic_replay(self):
        views = [sample_view(vantage="A"), sample_view(vantage="B")]
        plan = lambda: FaultPlan(seed=9).add(
            DuplicatedRecords(duplicate_fraction=0.3)
        ).add(CorruptedFields(corrupt_fraction=0.2))
        once = plan().apply(0, views)
        again = plan().apply(0, views)
        for a, b in zip(once.views, again.views):
            assert np.array_equal(a.flows.dst_ip, b.flows.dst_ip)
            assert np.array_equal(a.flows.bytes, b.flows.bytes)

    def test_seed_changes_the_injection(self):
        views = [sample_view()]
        one = FaultPlan(seed=1).add(
            DuplicatedRecords(duplicate_fraction=0.3)
        ).apply(0, views)
        two = FaultPlan(seed=2).add(
            DuplicatedRecords(duplicate_fraction=0.3)
        ).apply(0, views)
        assert not np.array_equal(
            one.views[0].flows.dst_ip, two.views[0].flows.dst_ip
        )

    def test_outage_short_circuits_later_injectors(self):
        # TruncatedDay sorts after SiteOutage in the canonical name
        # order, so the outage kills the view before truncation runs —
        # regardless of the (reversed) construction order here.
        plan = FaultPlan().add(TruncatedDay(keep_fraction=0.5)).add(SiteOutage())
        faulted = plan.apply(0, [sample_view()])
        assert not faulted.views
        assert [event.fault for event in faulted.events] == ["SiteOutage"]

    def test_composition_is_order_deterministic(self):
        views = [sample_view(vantage="A"), sample_view(vantage="B")]
        forwards = FaultPlan(seed=9).add(
            DuplicatedRecords(duplicate_fraction=0.3)
        ).add(CorruptedFields(corrupt_fraction=0.2))
        backwards = FaultPlan(seed=9).add(
            CorruptedFields(corrupt_fraction=0.2)
        ).add(DuplicatedRecords(duplicate_fraction=0.3))
        one = forwards.apply(0, views)
        two = backwards.apply(0, views)
        assert [e.fault for e in one.events] == [e.fault for e in two.events]
        for a, b in zip(one.views, two.views):
            assert np.array_equal(a.flows.src_ip, b.flows.src_ip)
            assert np.array_equal(a.flows.dst_ip, b.flows.dst_ip)
            assert np.array_equal(a.flows.bytes, b.flows.bytes)
            assert np.array_equal(a.flows.packets, b.flows.packets)

    def test_untargeted_views_pass_through(self):
        plan = FaultPlan().add(SiteOutage(vantages=frozenset({"A"})))
        faulted = plan.apply(0, [sample_view(vantage="A"), sample_view(vantage="B")])
        assert [view.vantage for view in faulted.views] == ["B"]
        assert faulted.events[0].vantage == "A"

    def test_event_log(self):
        plan = FaultPlan().add(TruncatedDay(keep_fraction=0.5))
        faulted = plan.apply(3, [sample_view(vantage="X", day=3)])
        event = faulted.events[0]
        assert (event.day, event.vantage, event.fault) == (3, "X", "TruncatedDay")
        assert "kept first" in event.detail

    def test_standard_injectors(self):
        for name in ("outage", "truncate", "duplicate", "corrupt",
                     "missample", "stale-rib"):
            injector = standard_injector(name, days=frozenset({1}))
            assert injector.applies(1, "V")
            assert not injector.applies(0, "V")
        with pytest.raises(ValueError):
            standard_injector("nope")


class _RecordingCollector:
    def __init__(self):
        self.requested = []

    def daily_table(self, day):
        self.requested.append(day)
        return f"table-{day}"


class TestStaleRib:
    def test_collector_serves_lagged_days(self):
        inner = _RecordingCollector()
        wrapped = StaleRibCollector(inner, [StaleRib(lag_days=2)])
        assert wrapped.daily_table(5) == "table-3"
        assert wrapped.daily_table(1) == "table-0"  # clamped at day 0

    def test_lag_respects_day_targeting(self):
        inner = _RecordingCollector()
        wrapped = StaleRibCollector(
            inner, [StaleRib(lag_days=2, days=frozenset({5}))]
        )
        assert wrapped.daily_table(5) == "table-3"
        assert wrapped.daily_table(4) == "table-4"

    def test_plan_wraps_only_when_needed(self):
        inner = _RecordingCollector()
        assert FaultPlan().wrap_collector(inner) is inner
        wrapped = FaultPlan().add(StaleRib(lag_days=1)).wrap_collector(inner)
        assert isinstance(wrapped, StaleRibCollector)

    def test_views_pass_through_stale_rib(self):
        view = sample_view()
        out, detail = StaleRib(lag_days=1).inject(view, rng())
        assert out is view
        assert "lagged" in detail

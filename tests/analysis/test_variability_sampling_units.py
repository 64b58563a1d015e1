"""Unit-level tests for the variability and sampling-study helpers."""

import numpy as np
import pytest

from repro.analysis.sampling_study import SamplingPoint, sampling_sweep
from repro.analysis.variability import DailySeries, daily_series
from repro.bgp.rib import Announcement, RouteViewsCollector
from repro.core.combine import per_day_results
from repro.core.metatelescope import MetaTelescope
from repro.net.ipv4 import Prefix, parse_ip
from repro.world.ground_truth import BlockIndex, BlockState

from _factories import ip, make_view

BASE = parse_ip("20.0.0.0") >> 8


def make_telescope():
    collector = RouteViewsCollector(
        [Announcement(Prefix.parse("20.0.0.0/8"), 65001)]
    )
    return MetaTelescope(collector=collector)


class TestDailySeries:
    def views_by_day(self):
        return {
            day: [
                make_view(
                    [{"dst_ip": ip(BASE + i)} for i in range(day + 1)], day=day
                )
            ]
            for day in range(7)
        }

    def test_counts_per_day(self):
        series = daily_series("X", self.views_by_day(), make_telescope())
        assert series.label == "X"
        assert series.counts == [1, 2, 3, 4, 5, 6, 7]

    def test_weekend_uplift_computation(self):
        series = DailySeries(label="x", days=list(range(7)),
                             counts=[10, 10, 10, 10, 10, 20, 20])
        assert series.weekend_uplift() == pytest.approx(2.0)

    def test_weekend_uplift_needs_both(self):
        series = DailySeries(label="x", days=[0, 1], counts=[1, 2])
        assert np.isnan(series.weekend_uplift())

    def test_daily_dark_sets(self):
        # Per-day dark sets: one inference per day over that day's routing.
        telescope = make_telescope()
        views = self.views_by_day()
        routing = telescope.routing_for_days(sorted(views))
        sets = per_day_results(views, routing, telescope.config)
        assert set(sets) == set(range(7))
        assert sets[6].num_dark() == 7


class TestSamplingSweepUnits:
    def make_index(self):
        blocks = np.arange(BASE, BASE + 4)
        return BlockIndex(
            blocks=blocks,
            asn=np.full(4, 1),
            country_index=np.zeros(4),
            type_index=np.zeros(4),
            state=np.full(4, int(BlockState.DARK)),
        )

    def test_factor_one_uses_original(self):
        views = [make_view([{"dst_ip": ip(BASE), "packets": 50}])]
        points = sampling_sweep(
            views, make_telescope(), self.make_index(), factors=(1,)
        )
        assert points[0].factor == 1
        assert points[0].inferred == 1
        assert points[0].sampled_packets == 50

    def test_extreme_factor_goes_dark(self):
        views = [make_view([{"dst_ip": ip(BASE), "packets": 3}])]
        points = sampling_sweep(
            views, make_telescope(), self.make_index(),
            factors=(1, 10**6), seed=1,
        )
        assert points[-1].inferred == 0
        assert points[-1].sampled_packets == 0

    def test_points_are_dataclasses(self):
        views = [make_view([{"dst_ip": ip(BASE)}])]
        points = sampling_sweep(
            views, make_telescope(), self.make_index(), factors=(1, 2)
        )
        assert all(isinstance(p, SamplingPoint) for p in points)
        assert [p.factor for p in points] == [1, 2]

    def test_deterministic_given_seed(self):
        views = [make_view([{"dst_ip": ip(BASE), "packets": 200}])]
        a = sampling_sweep(
            views, make_telescope(), self.make_index(), factors=(5,), seed=3
        )
        b = sampling_sweep(
            views, make_telescope(), self.make_index(), factors=(5,), seed=3
        )
        assert a[0].sampled_packets == b[0].sampled_packets

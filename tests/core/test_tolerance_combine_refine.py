"""Tests for spoofing tolerance, multi-day combination and refinement."""

import numpy as np
import pytest

from repro.core.pipeline import run_pipeline_accumulated
from repro.core.refine import (
    cone_filtered_view,
    drop_spoofed_ground_truth,
    non_bcp38_asns,
    refine_with_liveness,
)
from repro.core.spoofing_tolerance import tolerances_from_accumulator
from repro.bgp.asinfo import ASRegistry, ASType, AutonomousSystem
from repro.bgp.rib import Announcement, RoutingTable
from repro.bgp.topology import AsTopology
from repro.datasets.liveness import LivenessDataset
from repro.datasets.pfx2as import PrefixToAsMap
from repro.net.blocksets import sorted_in_at_least
from repro.net.ipv4 import Prefix, parse_ip

from _factories import fold, ip, make_view, routing_for

BASE = parse_ip("20.0.0.0") >> 8
ROUTING = routing_for("20.0.0.0/8")
UNROUTED = np.arange(parse_ip("39.0.0.0") >> 8, (parse_ip("39.0.0.0") >> 8) + 100)


def tolerance(view, unrouted_blocks, **kwargs):
    """The window tolerance of a single vantage-day."""
    return tolerances_from_accumulator(fold([view]), unrouted_blocks, **kwargs)[
        view.vantage
    ]


class TestTolerance:
    def test_zero_when_unrouted_clean(self):
        view = make_view([{"dst_ip": ip(BASE)}])
        assert tolerance(view, UNROUTED) == 0.0

    def test_quantile_of_pollution(self):
        rows = [{"dst_ip": ip(BASE)}]
        # Pollute 90 of 100 unrouted blocks with 2 packets each.
        rows.extend(
            {"src_ip": ip(int(b)), "dst_ip": ip(BASE + 700), "packets": 2}
            for b in UNROUTED[:90]
        )
        view = make_view(rows)
        assert tolerance(view, UNROUTED, quantile=0.5) == 2.0

    def test_extreme_quantile_is_max(self):
        rows = [
            {"src_ip": ip(int(UNROUTED[0])), "dst_ip": ip(BASE + 700), "packets": 9}
        ]
        view = make_view(rows)
        assert tolerance(view, UNROUTED) == 9.0

    def test_requires_baseline(self):
        view = make_view([{"dst_ip": ip(BASE)}])
        with pytest.raises(ValueError):
            tolerance(view, np.array([]))

    def test_validates_quantile(self):
        view = make_view([{"dst_ip": ip(BASE)}])
        with pytest.raises(ValueError):
            tolerance(view, UNROUTED, quantile=1.5)

    def test_per_view_mapping(self):
        views = [
            make_view([{"dst_ip": ip(BASE)}], vantage="A", day=0),
            make_view([{"dst_ip": ip(BASE)}], vantage="B", day=1),
        ]
        mapping = tolerances_from_accumulator(fold(views), UNROUTED)
        assert set(mapping) == {"A", "B"}


class TestCombine:
    """Per-day inferences, the growing window and the stability
    recommendation over their dark sets."""

    def views_by_day(self):
        return {
            0: [make_view([{"dst_ip": ip(BASE)}], day=0)],
            1: [make_view([{"dst_ip": ip(BASE)}, {"dst_ip": ip(BASE + 1)}], day=1)],
        }

    def dark_by_day(self):
        return [
            run_pipeline_accumulated(fold(views), ROUTING).dark_blocks
            for views in self.views_by_day().values()
        ]

    def test_per_day(self):
        assert [len(dark) for dark in self.dark_by_day()] == [1, 2]

    def test_cumulative(self):
        # Days 0-1 pooled into one inference: the growing window.
        by_day = self.views_by_day()
        pooled = fold(by_day[0] + by_day[1])
        assert run_pipeline_accumulated(pooled, ROUTING).num_dark() == 2

    def test_stable_blocks(self):
        assert sorted_in_at_least(self.dark_by_day(), 2).tolist() == [BASE]

    def test_union_and_intersection(self):
        # Dark on any day (the union) and on every day (the intersection).
        daily = self.dark_by_day()
        assert sorted_in_at_least(daily, 1).tolist() == [BASE, BASE + 1]
        assert sorted_in_at_least(daily, len(daily)).tolist() == [BASE]


class TestRefine:
    def test_liveness_removal(self):
        liveness = [LivenessDataset(name="c", active_blocks=np.array([BASE]))]
        result = refine_with_liveness(np.array([BASE, BASE + 1]), liveness)
        assert result.final_blocks.tolist() == [BASE + 1]
        assert result.removed_blocks.tolist() == [BASE]
        assert result.removed_fraction() == pytest.approx(0.5)

    def test_no_liveness(self):
        result = refine_with_liveness(np.array([BASE]), [])
        assert result.final_blocks.tolist() == [BASE]
        assert result.removed_fraction() == 0.0

    def test_non_bcp38(self):
        registry = ASRegistry.from_ases(
            [
                AutonomousSystem(1, "a", "O1", ASType.ISP, "US", spoof_filtered=True),
                AutonomousSystem(2, "b", "O2", ASType.ISP, "US", spoof_filtered=False),
            ]
        )
        assert non_bcp38_asns(registry) == frozenset({2})

    def test_drop_spoofed_oracle(self):
        view = make_view(
            [
                {"dst_ip": ip(BASE), "spoofed": False},
                {"dst_ip": ip(BASE), "spoofed": True},
            ]
        )
        cleaned = drop_spoofed_ground_truth(view)
        assert len(cleaned.flows) == 1

    def test_cone_filter(self):
        # AS1 (provider) -> AS2 (customer).  Claimed sources originated
        # by AS2 are plausible from sender AS1; sources from AS3 are not.
        topology = AsTopology()
        topology.add_provider_customer(1, 2)
        topology.add_as(3)
        pfx2as = PrefixToAsMap.from_routing_table(
            RoutingTable(
                [
                    Announcement(Prefix.parse("20.0.0.0/8"), 2),
                    Announcement(Prefix.parse("30.0.0.0/8"), 3),
                ]
            )
        )
        view = make_view(
            [
                {"src_ip": parse_ip("20.1.1.1"), "sender_asn": 1},
                {"src_ip": parse_ip("30.1.1.1"), "sender_asn": 1},  # spoofed
            ]
        )
        cleaned = cone_filtered_view(view, topology, pfx2as)
        assert len(cleaned.flows) == 1
        assert cleaned.flows.src_ip[0] == parse_ip("20.1.1.1")

    def test_cone_filter_empty_view(self):
        topology = AsTopology()
        pfx2as = PrefixToAsMap.from_routing_table(RoutingTable([]))
        view = make_view([])
        assert len(cone_filtered_view(view, topology, pfx2as).flows) == 0

"""Tests for the transit-ISP vantage point (Section 9 extension)."""

import numpy as np
import pytest

from repro.bgp.rib import Announcement, RoutingTable
from repro.bgp.topology import AsTopology
from repro.datasets.pfx2as import PrefixToAsMap
from repro.net.ipv4 import Prefix, parse_ip
from repro.vantage.transit import TransitIspVantage

from _factories import make_flows


def make_vantage(**overrides):
    # AS1 (transit) -> AS2, AS3 customers; AS9 is outside the cone.
    topology = AsTopology()
    topology.add_provider_customer(1, 2)
    topology.add_provider_customer(1, 3)
    topology.add_as(9)
    pfx2as = PrefixToAsMap.from_routing_table(
        RoutingTable(
            [
                Announcement(Prefix.parse("20.0.0.0/8"), 2),
                Announcement(Prefix.parse("30.0.0.0/8"), 3),
                Announcement(Prefix.parse("90.0.0.0/8"), 9),
            ]
        )
    )
    defaults = dict(
        code="T1",
        asn=1,
        topology=topology,
        pfx2as=pfx2as,
        sampling_factor=1.0,
    )
    defaults.update(overrides)
    return TransitIspVantage(**defaults)


class TestCapture:
    def test_in_cone_traffic_captured(self, rng):
        vantage = make_vantage()
        flows = make_flows(
            [
                {"src_ip": parse_ip("20.0.0.1"), "sender_asn": 2, "dst_asn": 9},
                {"src_ip": parse_ip("90.0.0.1"), "sender_asn": 9, "dst_asn": 3},
            ]
        )
        view = vantage.capture(flows, day=0, rng=rng)
        assert len(view.flows) == 2
        assert view.sampling_factor == 1.0

    def test_unrelated_traffic_invisible(self, rng):
        vantage = make_vantage()
        flows = make_flows(
            [{"src_ip": parse_ip("90.0.0.1"), "sender_asn": 9, "dst_asn": 9}]
        )
        assert len(vantage.capture(flows, day=0, rng=rng).flows) == 0

    def test_bcp38_drops_in_cone_spoofing(self, rng):
        vantage = make_vantage()
        flows = make_flows(
            [
                # customer AS2 spoofing an out-of-cone source: dropped
                {"src_ip": parse_ip("90.0.0.1"), "sender_asn": 2, "dst_asn": 9,
                 "spoofed": True},
                # outside attacker spoofing toward a customer: passes
                {"src_ip": parse_ip("90.0.0.1"), "sender_asn": 9, "dst_asn": 2,
                 "spoofed": True},
            ]
        )
        view = vantage.capture(flows, day=0, rng=rng)
        assert len(view.flows) == 1
        assert view.flows.sender_asn[0] == 9

    def test_no_bcp38_keeps_spoofing(self, rng):
        vantage = make_vantage(bcp38_at_edge=False)
        flows = make_flows(
            [{"src_ip": parse_ip("90.0.0.1"), "sender_asn": 2, "dst_asn": 9,
              "spoofed": True}]
        )
        assert len(vantage.capture(flows, day=0, rng=rng).flows) == 1

    def test_sampling_applied(self, rng):
        vantage = make_vantage(sampling_factor=10.0)
        flows = make_flows(
            [{"src_ip": parse_ip("20.0.0.1"), "sender_asn": 2, "dst_asn": 9,
              "packets": 10000}]
        )
        view = vantage.capture(flows, day=0, rng=rng)
        assert view.flows.total_packets() == pytest.approx(1000, rel=0.2)
        assert view.sampling_factor == 10.0

    def test_validates_sampling(self):
        with pytest.raises(ValueError):
            make_vantage(sampling_factor=0.5)


class TestAsMetaTelescopeVantage:
    def test_pipeline_runs_on_transit_view(
        self, integration_world, integration_observatory
    ):
        """The Section 9 future-work scenario: infer from ISP flows."""
        from repro.core import MetaTelescope
        from repro.core.pipeline import PipelineConfig

        world = integration_world
        tier1 = world.topology.tier1_asns()[0]
        vantage = TransitIspVantage(
            code="TR1",
            asn=tier1,
            topology=world.topology,
            pfx2as=world.datasets.pfx2as,
            sampling_factor=4.0,
        )
        rng = np.random.default_rng(3)
        # Rebuild one ground-truth day (the observatory drops it).
        traffic_rng = world.config.child_rng("traffic-day-0")
        ground = world.annotate_dst_asn(world.mix.generate_day(0, traffic_rng))
        view = vantage.capture(ground, day=0, rng=rng)
        telescope = MetaTelescope(
            collector=world.collector,
            unrouted_baseline=world.unrouted_baseline_blocks,
            config=PipelineConfig(
                volume_threshold_pkts_day=world.config.volume_threshold_pkts_day
            ),
        )
        result = telescope.infer([view], use_spoofing_tolerance=True)
        assert result.num_prefixes() > 0

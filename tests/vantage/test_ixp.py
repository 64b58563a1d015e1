"""Tests for the IXP fabric: engagement, assignment, sampling."""

import numpy as np
import pytest

from repro.bgp.topology import AsTopology
from repro.vantage.ixp import Ixp, IxpFabric

from _factories import make_flows


def small_fabric(customer_engagement=0.5, continent_of_asn=None):
    topology = AsTopology()
    for provider, customer in ((1, 2), (2, 3), (2, 4)):
        topology.add_provider_customer(provider, customer)
    ixps = [
        Ixp(
            code="X1",
            region="CE",
            member_asns=frozenset({1, 2}),
            capture_share=0.5,
            sampling_factor=1.0,
            customer_engagement=customer_engagement,
            home_continents=frozenset({"EU"}) if continent_of_asn else frozenset(),
        ),
        Ixp(
            code="X2",
            region="NA",
            member_asns=frozenset({1}),
            capture_share=0.3,
            sampling_factor=2.0,
        ),
    ]
    return IxpFabric(ixps, topology, max_asn=4, continent_of_asn=continent_of_asn)


class TestConstruction:
    def test_duplicate_codes_rejected(self):
        topology = AsTopology()
        ixp = Ixp("X", "CE", frozenset({1}), 0.5, 1.0)
        with pytest.raises(ValueError):
            IxpFabric([ixp, ixp], topology, max_asn=1)

    def test_needs_ixps(self):
        with pytest.raises(ValueError):
            IxpFabric([], AsTopology(), max_asn=1)

    def test_capture_share_validated(self):
        with pytest.raises(ValueError):
            Ixp("X", "CE", frozenset(), 0.0, 1.0)

    def test_sampling_factor_validated(self):
        with pytest.raises(ValueError):
            Ixp("X", "CE", frozenset(), 0.5, 0.5)


class TestEngagement:
    def test_members_fully_engaged(self):
        fabric = small_fabric()
        assert fabric.engagement_of("X1", 1) == 1.0
        assert fabric.engagement_of("X1", 2) == 1.0

    def test_customers_partially_engaged(self):
        fabric = small_fabric()
        assert fabric.engagement_of("X1", 3) == 0.5

    def test_unknown_asn_zero(self):
        fabric = small_fabric()
        assert fabric.engagement_of("X1", 99) == 0.0

    def test_continent_gating(self):
        continents = {1: "EU", 2: "EU", 3: "NA", 4: "EU"}
        fabric = small_fabric(continent_of_asn=continents)
        # AS3 is a NA customer: it engages at the remote discount only.
        remote = fabric.ixps[0].remote_customer_engagement
        assert fabric.engagement_of("X1", 3) == pytest.approx(remote)
        assert fabric.engagement_of("X1", 4) == 0.5

    def test_excluded_asns(self):
        topology = AsTopology()
        for provider, customer in ((1, 2), (2, 3)):
            topology.add_provider_customer(provider, customer)
        ixp = Ixp(
            code="X1",
            region="CE",
            member_asns=frozenset({1, 2}),
            capture_share=0.5,
            sampling_factor=1.0,
            excluded_asns=frozenset({2}),
        )
        fabric = IxpFabric([ixp], topology, max_asn=3)
        assert fabric.engagement_of("X1", 2) == 0.0


class TestAssignment:
    def test_unknown_asns_never_cross(self, rng):
        fabric = small_fabric()
        flows = make_flows([{"sender_asn": -1, "dst_asn": 1}] * 50)
        assignment = fabric.assign_flows(flows, rng)
        assert (assignment == -1).all()

    def test_fully_engaged_pairs_cross_sometimes(self, rng):
        fabric = small_fabric()
        flows = make_flows([{"sender_asn": 1, "dst_asn": 2}] * 2000)
        assignment = fabric.assign_flows(flows, rng)
        crossing = (assignment >= 0).mean()
        # X1 score 0.5; X2 needs dst engagement (asn 2 not member,
        # customer of member 1) so some flows land there too.
        assert 0.3 < crossing < 0.95

    def test_assignment_respects_scores(self, rng):
        fabric = small_fabric()
        flows = make_flows([{"sender_asn": 1, "dst_asn": 2}] * 5000)
        assignment = fabric.assign_flows(flows, rng)
        x1_share = (assignment == 0).mean()
        x2_share = (assignment == 1).mean()
        assert x1_share > x2_share

    def test_empty_flows(self, rng):
        fabric = small_fabric()
        assert len(fabric.assign_flows(make_flows([]), rng)) == 0


class TestViews:
    def test_views_for_day_structure(self, rng):
        fabric = small_fabric()
        flows = make_flows([{"sender_asn": 1, "dst_asn": 2, "packets": 4}] * 500)
        views = fabric.views_for_day(flows, day=3, rng=rng)
        assert set(views) == {"X1", "X2"}
        assert views["X1"].day == 3
        assert views["X2"].sampling_factor == 2.0

    def test_views_disjoint_flows(self, rng):
        # A packet crosses at most one IXP: totals never exceed ground.
        fabric = small_fabric()
        flows = make_flows([{"sender_asn": 1, "dst_asn": 2, "packets": 4}] * 500)
        views = fabric.views_for_day(flows, day=0, rng=rng)
        estimated = sum(
            v.flows.total_packets() * v.sampling_factor for v in views.values()
        )
        assert estimated < flows.total_packets() * 1.5

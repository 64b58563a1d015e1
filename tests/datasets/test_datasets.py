"""Tests for the auxiliary dataset emulators."""

import numpy as np
import pytest

from repro.bgp.asinfo import ASRegistry, ASType, AutonomousSystem
from repro.bgp.rib import Announcement, RoutingTable
from repro.datasets.as2org import AsToOrgMap
from repro.datasets.geodb import GeoDatabase
from repro.datasets.ipinfo import AsClassification
from repro.datasets.liveness import LivenessDataset, union_liveness
from repro.datasets.pfx2as import PrefixToAsMap
from repro.net.ipv4 import Prefix, parse_ip


def registry_with(*asns):
    return ASRegistry.from_ases(
        AutonomousSystem(
            asn=asn,
            name=f"AS{asn}",
            org_id=f"ORG-{asn}",
            as_type=ASType.ISP,
            country_code="US",
        )
        for asn in asns
    )


class TestLiveness:
    def test_contains(self):
        dataset = LivenessDataset(name="x", active_blocks=np.array([5, 9]))
        assert dataset.contains(np.array([5, 6, 9])).tolist() == [True, False, True]

    def test_dedup(self):
        dataset = LivenessDataset(name="x", active_blocks=np.array([5, 5]))
        assert len(dataset.active_blocks) == 1

    def test_observe_recall(self, rng):
        active = np.arange(1000)
        dataset = LivenessDataset.observe(
            "c", active, np.array([]), recall=0.5, stale_rate=0.0, rng=rng
        )
        assert 350 < len(dataset.active_blocks) < 650

    def test_observe_stale(self, rng):
        dark = np.arange(1000)
        dataset = LivenessDataset.observe(
            "c", np.array([]), dark, recall=1.0, stale_rate=0.1, rng=rng
        )
        assert 40 < len(dataset.active_blocks) < 200

    def test_observe_validates(self, rng):
        with pytest.raises(ValueError):
            LivenessDataset.observe(
                "c", np.array([]), np.array([]), recall=1.5, stale_rate=0.0, rng=rng
            )

    def test_union(self):
        a = LivenessDataset(name="a", active_blocks=np.array([1]))
        b = LivenessDataset(name="b", active_blocks=np.array([2]))
        union = union_liveness([a, b])
        assert union.active_blocks.tolist() == [1, 2]
        assert union.name == "a+b"

    def test_union_empty_rejected(self):
        with pytest.raises(ValueError):
            union_liveness([])


class TestGeoDatabase:
    def test_lookup(self):
        geodb = GeoDatabase(
            blocks=np.array([10, 20]),
            country_codes=np.array(["US", "DE"]),
        )
        assert geodb.lookup(np.array([20, 10, 30])).tolist() == ["DE", "US", "??"]

    def test_from_ground_truth_no_error(self, rng):
        geodb = GeoDatabase.from_ground_truth(
            blocks=np.arange(100),
            true_codes=np.array(["US"] * 100),
            error_rate=0.0,
            rng=rng,
        )
        assert (geodb.lookup(np.arange(100)) == "US").all()

    def test_from_ground_truth_with_error(self, rng):
        geodb = GeoDatabase.from_ground_truth(
            blocks=np.arange(2000),
            true_codes=np.array(["US"] * 2000),
            error_rate=0.2,
            rng=rng,
        )
        wrong = (geodb.lookup(np.arange(2000)) != "US").mean()
        assert 0.1 < wrong < 0.3

    def test_alignment_validated(self):
        with pytest.raises(ValueError):
            GeoDatabase(blocks=np.array([1]), country_codes=np.array(["US", "DE"]))


class TestPfx2As:
    def make_map(self):
        table = RoutingTable(
            [
                Announcement(Prefix.parse("10.0.0.0/8"), 65001),
                Announcement(Prefix.parse("10.1.0.0/16"), 65002),
            ]
        )
        return PrefixToAsMap.from_routing_table(table)

    def test_scalar_lpm(self):
        # One block at a time goes through the same vectorised lookup.
        mapping = self.make_map()
        for ip, asn in (("10.1.2.0", 65002), ("10.2.0.0", 65001), ("11.0.0.0", -1)):
            assert mapping.asns_of_blocks(np.array([parse_ip(ip) >> 8])).tolist() == [asn]

    def test_vectorised_matches_scalar(self):
        mapping = self.make_map()
        blocks = np.array(
            [
                parse_ip("10.1.2.0") >> 8,
                parse_ip("10.2.0.0") >> 8,
                parse_ip("11.0.0.0") >> 8,
            ]
        )
        assert mapping.asns_of_blocks(blocks).tolist() == [65002, 65001, -1]


class TestAsMetadata:
    def test_as2org(self):
        registry = registry_with(10, 20)
        mapping = AsToOrgMap.from_registry(registry)
        assert mapping.mapping[10].org_id == "ORG-10"
        assert 99 not in mapping.mapping
        assert len({org.org_id for org in mapping.mapping.values()}) == 2

    def test_ipinfo_exact_without_error(self, rng):
        registry = registry_with(10)
        classification = AsClassification.from_registry(registry, 0.0, rng)
        assert classification.type_of(10) is ASType.ISP
        assert classification.type_of(99) is None

    def test_ipinfo_error_rate(self, rng):
        registry = registry_with(*range(1, 2001))
        classification = AsClassification.from_registry(registry, 0.5, rng)
        labels = classification.types_of(np.arange(1, 2001))
        wrong = sum(1 for label in labels if label is not ASType.ISP)
        # Half relabelled uniformly over 4 categories -> ~37.5% wrong.
        assert 0.25 < wrong / 2000 < 0.5

    def test_ipinfo_validates(self, rng):
        with pytest.raises(ValueError):
            AsClassification.from_registry(registry_with(1), 1.0, rng)

"""Tests for the AS registry."""

import pytest

from repro.bgp.asinfo import ASRegistry, ASType, AutonomousSystem, Organization
from repro.geo.countries import Continent
from repro.net.ipv4 import Prefix


def make_as(asn=1, as_type=ASType.ISP, country="US", **kwargs):
    return AutonomousSystem(
        asn=asn,
        name=f"AS{asn}",
        org_id=f"ORG-{asn}",
        as_type=as_type,
        country_code=country,
        **kwargs,
    )


class TestAutonomousSystem:
    def test_country_lookup(self):
        assert make_as(country="DE").country.name == "Germany"

    def test_continent(self):
        assert make_as(country="JP").continent is Continent.ASIA

    def test_num_announced_blocks(self):
        autonomous_system = make_as()
        autonomous_system.announced.append(Prefix.parse("10.0.0.0/22"))
        autonomous_system.announced.append(Prefix.parse("11.0.0.0/24"))
        assert autonomous_system.num_announced_blocks() == 5

    def test_defaults(self):
        autonomous_system = make_as()
        assert not autonomous_system.is_cdn
        assert autonomous_system.spoof_filtered


class TestRegistry:
    def test_add_and_get(self):
        registry = ASRegistry()
        registry.add(make_as(5))
        assert registry.get(5).asn == 5
        assert len(registry) == 1

    def test_duplicate_rejected(self):
        registry = ASRegistry()
        registry.add(make_as(5))
        with pytest.raises(ValueError):
            registry.add(make_as(5))

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            ASRegistry().get(99)

    def test_org_conflict_rejected(self):
        registry = ASRegistry()
        registry.add_org(Organization("O1", "Org One", "US"))
        registry.add_org(Organization("O1", "Org One", "US"))  # idempotent
        with pytest.raises(ValueError):
            registry.add_org(Organization("O1", "Other", "US"))

    def test_from_ases_creates_orgs(self):
        registry = ASRegistry.from_ases([make_as(7)])
        assert registry.org("ORG-7").country_code == "US"

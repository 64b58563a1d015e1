"""Tests for the AS topology and customer cones."""

import pytest

from repro.bgp.topology import AsTopology


def hierarchy():
    # 1,2 tier1 (peers); 10 mid (customer of 1,2); 100,101 stubs of 10;
    # 200 stub of 2.
    topo = AsTopology()
    topo.add_peering(1, 2)
    for provider, customer in ((1, 10), (2, 10), (10, 100), (10, 101), (2, 200)):
        topo.add_provider_customer(provider, customer)
    return topo


class TestRelationships:
    def test_providers(self):
        topo = hierarchy()
        assert topo.providers_of(10) == {1, 2}
        assert topo.providers_of(100) == {10}

    def test_customers(self):
        topo = hierarchy()
        assert topo.customers_of(10) == {100, 101}

    def test_peering_not_in_cone(self):
        topo = hierarchy()
        assert 2 not in topo.customer_cone(1)

    def test_self_provider_rejected(self):
        topo = AsTopology()
        with pytest.raises(ValueError):
            topo.add_provider_customer(1, 1)

    def test_self_peering_rejected(self):
        topo = AsTopology()
        with pytest.raises(ValueError):
            topo.add_peering(1, 1)


class TestCones:
    def test_stub_cone_is_self(self):
        topo = hierarchy()
        assert topo.customer_cone(100) == {100}

    def test_mid_cone(self):
        topo = hierarchy()
        assert topo.customer_cone(10) == {10, 100, 101}

    def test_tier1_cone_transitive(self):
        topo = hierarchy()
        assert topo.customer_cone(1) == {1, 10, 100, 101}
        assert topo.customer_cone(2) == {2, 10, 100, 101, 200}

    def test_cone_cache_invalidated(self):
        topo = hierarchy()
        assert 300 not in topo.customer_cone(1)
        topo.add_provider_customer(1, 300)
        assert 300 in topo.customer_cone(1)


class TestStructure:
    def test_tier1_detection(self):
        topo = hierarchy()
        assert topo.tier1_asns() == [1, 2]

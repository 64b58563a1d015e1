"""Tests for the special-purpose registries (RFC 6890 and IANA IPv6).

``special_mask`` is held to :func:`special_by_loop`, a loop over the
registry's entries that asks the standard library whether each entry
overlaps the block: it shares no code with the block-span table the
registry probes.
"""

import ipaddress

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.family import IPV4, IPV6
from repro.net.ipv4 import Prefix, parse_ip
from repro.net.special import (
    _REGISTRY_ROWS,
    SPECIAL_PURPOSE_REGISTRY,
    SPECIAL_PURPOSE_REGISTRY_V6,
    SpecialPurposeEntry,
    SpecialPurposeRegistry,
)


def special_by_loop(registry, block):
    """Does ``block`` overlap any entry of ``registry``?  Each entry and
    the block are read as :mod:`ipaddress` networks."""
    family = registry.family
    network_type = {32: ipaddress.IPv4Network, 128: ipaddress.IPv6Network}[
        family.ip_bits
    ]
    address = block << family.ip_block_shift
    network = network_type((address, family.block_prefix_length))
    return any(
        network.overlaps(
            network_type((entry.prefix.network, entry.prefix.length))
        )
        for entry in registry.entries
    )


def is_special_ip(registry, address):
    """The registry's answer for the block holding ``address``."""
    block = registry.family.block_of_ip(address)
    return bool(registry.special_mask(np.array([block]))[0])


class TestMembership:
    @pytest.mark.parametrize(
        "address",
        [
            "10.0.0.1",
            "127.0.0.1",
            "169.254.1.1",
            "172.16.0.1",
            "172.31.255.255",
            "192.168.1.1",
            "100.64.0.1",
            "198.18.0.1",
            "192.0.2.1",
            "198.51.100.1",
            "203.0.113.1",
            "224.0.0.1",
            "239.255.255.255",
            "240.0.0.1",
            "0.1.2.3",
        ],
    )
    def test_special_addresses(self, address):
        assert is_special_ip(SPECIAL_PURPOSE_REGISTRY, parse_ip(address))

    @pytest.mark.parametrize(
        "address",
        [
            "1.1.1.1",
            "8.8.8.8",
            "100.63.255.255",
            "100.128.0.0",
            "172.32.0.1",
            "11.0.0.1",
            "223.255.255.255",
            "198.20.0.1",
        ],
    )
    def test_public_addresses(self, address):
        assert not is_special_ip(SPECIAL_PURPOSE_REGISTRY, parse_ip(address))

    def test_block_query_matches_ip_query(self):
        block = parse_ip("192.168.55.0") >> 8
        assert SPECIAL_PURPOSE_REGISTRY.special_mask(np.array([block]))[0]
        assert is_special_ip(SPECIAL_PURPOSE_REGISTRY, parse_ip("192.168.55.7"))

    def test_broadcast_taints_its_block(self):
        block = parse_ip("255.255.255.0") >> 8
        assert SPECIAL_PURPOSE_REGISTRY.special_mask(np.array([block]))[0]
        assert special_by_loop(SPECIAL_PURPOSE_REGISTRY, block)


class TestVectorised:
    def test_mask_agrees_with_scalar(self):
        blocks = np.array(
            [
                parse_ip(a) >> 8
                for a in ("10.1.2.0", "8.8.8.0", "192.168.0.0", "1.2.3.0")
            ]
        )
        mask = SPECIAL_PURPOSE_REGISTRY.special_mask(blocks)
        assert mask.tolist() == [True, False, True, False]
        assert mask.tolist() == [
            special_by_loop(SPECIAL_PURPOSE_REGISTRY, int(block))
            for block in blocks
        ]

    def test_empty_input(self):
        assert SPECIAL_PURPOSE_REGISTRY.special_mask(np.array([], dtype=np.int64)).size == 0

    @given(st.lists(st.integers(min_value=0, max_value=2**24 - 1), max_size=64))
    def test_mask_property(self, blocks):
        blocks_arr = np.array(blocks, dtype=np.int64)
        mask = SPECIAL_PURPOSE_REGISTRY.special_mask(blocks_arr)
        assert mask.tolist() == [
            special_by_loop(SPECIAL_PURPOSE_REGISTRY, block) for block in blocks
        ]


def registry_edges(registry):
    """Each entry's first and last block and both their neighbours."""
    shift = registry.family.ip_block_shift
    edges = set()
    for entry in registry.entries:
        first = entry.prefix.network >> shift
        last = entry.prefix.last_ip() >> shift
        edges |= {first - 1, first, last, last + 1}
    return sorted(b for b in edges if 0 <= b < registry.family.num_blocks)


class TestAgainstALoop:
    """Both default registries, every entry's edges and random blocks,
    against :func:`special_by_loop`."""

    @pytest.mark.parametrize(
        "registry",
        [SPECIAL_PURPOSE_REGISTRY, SPECIAL_PURPOSE_REGISTRY_V6],
        ids=lambda registry: registry.family.name,
    )
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_special_mask_matches_a_loop_over_entries(self, registry, data):
        blocks = registry_edges(registry) + data.draw(st.lists(
            st.integers(0, registry.family.num_blocks - 1), max_size=16
        ))
        mask = registry.special_mask(np.array(blocks, dtype=np.int64))
        assert mask.tolist() == [special_by_loop(registry, b) for b in blocks]

    def test_each_family_reads_its_own_table(self):
        assert SPECIAL_PURPOSE_REGISTRY.family is IPV4
        assert SPECIAL_PURPOSE_REGISTRY_V6.family is IPV6
        assert {entry.prefix.bits for entry in SPECIAL_PURPOSE_REGISTRY_V6.entries} == {128}
        # A /128 (the loopback) taints its whole /48, as a /32 taints its /24.
        loopback = IPV6.block_of_ip(IPV6.parse_ip("::1"))
        assert SPECIAL_PURPOSE_REGISTRY_V6.special_mask(np.array([loopback]))[0]


class TestCustomRegistry:
    def test_custom_entries(self):
        registry = SpecialPurposeRegistry(
            [
                SpecialPurposeEntry(Prefix.parse("5.0.0.0/8"), "test", False),
            ]
        )
        assert is_special_ip(registry, parse_ip("5.1.2.3"))
        assert not is_special_ip(registry, parse_ip("6.1.2.3"))

    def test_default_matches_module_constant(self):
        assert [
            (str(entry.prefix), entry.name, entry.globally_reachable)
            for entry in SPECIAL_PURPOSE_REGISTRY.entries
        ] == list(_REGISTRY_ROWS)

"""Tests for the RFC 6890 special-purpose registry."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.ipv4 import Prefix, parse_ip
from repro.net.special import (
    SPECIAL_PURPOSE_REGISTRY,
    SpecialPurposeEntry,
    SpecialPurposeRegistry,
)


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
        assert SPECIAL_PURPOSE_REGISTRY.is_special_ip(parse_ip(address))

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
        assert not SPECIAL_PURPOSE_REGISTRY.is_special_ip(parse_ip(address))

    def test_block_query_matches_ip_query(self):
        block = parse_ip("192.168.55.0") >> 8
        assert SPECIAL_PURPOSE_REGISTRY.is_special_block(block)

    def test_broadcast_taints_its_block(self):
        assert SPECIAL_PURPOSE_REGISTRY.is_special_block(parse_ip("255.255.255.0") >> 8)


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

    def test_empty_input(self):
        assert SPECIAL_PURPOSE_REGISTRY.special_mask(np.array([], dtype=np.int64)).size == 0

    @given(st.lists(st.integers(min_value=0, max_value=2**24 - 1), max_size=64))
    def test_mask_property(self, blocks):
        blocks_arr = np.array(blocks, dtype=np.int64)
        mask = SPECIAL_PURPOSE_REGISTRY.special_mask(blocks_arr)
        for block, value in zip(blocks, mask):
            assert SPECIAL_PURPOSE_REGISTRY.is_special_block(block) == bool(value)


class TestCustomRegistry:
    def test_custom_entries(self):
        registry = SpecialPurposeRegistry(
            [
                SpecialPurposeEntry(Prefix.parse("5.0.0.0/8"), "test", False),
            ]
        )
        assert registry.is_special_ip(parse_ip("5.1.2.3"))
        assert not registry.is_special_ip(parse_ip("6.1.2.3"))

    def test_default_matches_module_constant(self):
        fresh = SpecialPurposeRegistry.default()
        assert len(fresh.entries) == len(SPECIAL_PURPOSE_REGISTRY.entries)

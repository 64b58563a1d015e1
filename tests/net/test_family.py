"""Tests for the address-family contract (repro.net.family)."""

import numpy as np
import pytest

from repro.net.family import (
    FAMILY_IPV4,
    FAMILY_IPV6,
    IPV4,
    IPV6,
    family,
)
from repro.net.ipv4 import AddressError, Prefix, parse_ip
from repro.net.ipv6 import parse_ip6


class TestLookup:
    def test_names(self):
        assert (IPV4.name, IPV6.name) == (FAMILY_IPV4, FAMILY_IPV6)

    def test_by_name(self):
        assert family("ipv4") is IPV4
        assert family("ipv6") is IPV6

    def test_unknown_name_is_a_value_error(self):
        # AddressError subclasses ValueError so generic parse handlers
        # catch family errors too.
        with pytest.raises(AddressError):
            family("ipv5")
        with pytest.raises(ValueError):
            family("ipv5")

    def test_of_prefix(self):
        # A prefix names its family by its address width.
        assert Prefix.parse("10.0.0.0/8").family is IPV4
        assert Prefix.parse("2001:db8::/32", 128).family is IPV6
        assert IPV6.parse_prefix("2001:db8::/32").family is IPV6


class TestConstants:
    def test_ipv4(self):
        assert IPV4.ip_block_shift == 8
        assert IPV4.key_block_shift == 8
        assert IPV4.num_blocks == 1 << 24
        assert IPV4.key_dtype == np.dtype(np.uint32)

    def test_ipv6(self):
        # Engine key = upper 64 bits (/64 id); block = /48 site.
        assert IPV6.ip_block_shift == 80
        assert IPV6.key_block_shift == 16
        assert IPV6.num_blocks == 1 << 48
        assert IPV6.key_dtype == np.dtype(np.uint64)


class TestBlockArithmetic:
    def test_v4_block_of_matches_historical_shift(self):
        keys = np.array([0, 255, 256, 0xC0A80101, 0xFFFFFFFF], dtype=np.uint32)
        expected = (keys >> np.uint32(8)).astype(np.int64)
        assert np.array_equal(IPV4.block_of(keys), expected)
        assert IPV4.block_of(keys).dtype == np.int64

    def test_v6_block_of(self):
        site = 0x20010D0000 << 8  # 2001:d00::/48 site id
        keys = np.array(
            [site << 16, (site << 16) | 0xFFFF], dtype=np.uint64
        )
        assert IPV6.block_of(keys).tolist() == [site, site]

    def test_scalar_conversions(self):
        ip = parse_ip("192.0.2.77")
        assert IPV4.block_of_ip(ip) == ip >> 8
        ip6 = parse_ip6("2001:db8:1:2:3:4:5:6")
        assert IPV6.block_of_ip(ip6) == ip6 >> 80

    def test_block_to_ip_is_network_address(self):
        assert IPV4.block_to_ip(IPV4.block_of_ip(parse_ip("10.1.2.3"))) == (
            parse_ip("10.1.2.0")
        )
        site = IPV6.block_of_ip(parse_ip6("2001:db8:42::1"))
        assert IPV6.block_to_ip(site) == parse_ip6("2001:db8:42::")


class TestText:
    def test_parse_format(self):
        assert IPV4.format_ip(IPV4.parse_ip("198.51.100.1")) == "198.51.100.1"
        assert IPV6.format_ip(IPV6.parse_ip("2001:DB8::1")) == "2001:db8::1"

    def test_block_to_prefix(self):
        prefix = IPV4.block_to_prefix(IPV4.block_of_ip(parse_ip("10.2.3.9")))
        assert str(prefix) == "10.2.3.0/24"
        site = IPV6.block_of_ip(parse_ip6("2001:db8:7::9"))
        assert IPV6.format_block(site) == "2001:db8:7::/48"

    def test_parse_prefix_types(self):
        # One prefix type for both families, told apart by its width.
        v4 = IPV4.parse_prefix("10.0.0.0/24")
        v6 = IPV6.parse_prefix("2001:db8::/48")
        assert type(v4) is type(v6) is Prefix
        assert (v4.bits, v6.bits) == (32, 128)
        assert v4 == Prefix.parse("10.0.0.0/24")
        assert v6 == Prefix(parse_ip6("2001:db8::"), 48, 128)
        assert Prefix(0, 24) != Prefix(0, 24, 128)
        # Each family's text is its own: the other family's is refused.
        with pytest.raises(AddressError):
            IPV4.parse_prefix("2001:db8::/48")
        with pytest.raises(AddressError):
            IPV6.parse_prefix("10.0.0.0/24")


class TestSpecialRegistry:
    def test_families_get_their_own_registry(self):
        v4 = IPV4.special_registry()
        v6 = IPV6.special_registry()
        assert v4.family is IPV4
        assert v6.family is IPV6
        sites = [
            IPV6.parse_prefix(text).first_block()
            for text in ("2001:db8::/48", "2001:d00::/48")
        ]
        assert v6.special_mask(np.array(sites)).tolist() == [True, False]

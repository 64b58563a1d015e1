"""Unit and property tests for IPv4 address/prefix arithmetic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.ipv4 import (
    MAX_IPV4,
    AddressError,
    Prefix,
    block_of_ip,
    block_to_prefix,
    format_ip,
    parse_ip,
)


class TestParseFormat:
    def test_parse_basic(self):
        assert parse_ip("192.0.2.1") == 0xC0000201

    def test_parse_zero(self):
        assert parse_ip("0.0.0.0") == 0

    def test_parse_max(self):
        assert parse_ip("255.255.255.255") == MAX_IPV4

    def test_parse_strips_whitespace(self):
        assert parse_ip(" 10.0.0.1 ") == 0x0A000001

    @pytest.mark.parametrize(
        "text", ["256.0.0.1", "1.2.3", "1.2.3.4.5", "a.b.c.d", "", "1..2.3"]
    )
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(AddressError):
            parse_ip(text)

    def test_format_basic(self):
        assert format_ip(0xC0000201) == "192.0.2.1"

    @pytest.mark.parametrize("value", [-1, MAX_IPV4 + 1])
    def test_format_rejects_out_of_range(self, value):
        with pytest.raises(AddressError):
            format_ip(value)

    @given(st.integers(min_value=0, max_value=MAX_IPV4))
    def test_roundtrip(self, value):
        assert parse_ip(format_ip(value)) == value


class TestBlocks:
    def test_block_of_ip(self):
        assert block_of_ip(parse_ip("10.1.2.3")) == parse_ip("10.1.2.0") >> 8

    @given(st.integers(min_value=0, max_value=MAX_IPV4))
    def test_block_roundtrip(self, value):
        block = block_of_ip(value)
        assert block << 8 <= value < (block << 8) + 256

    def test_block_to_prefix(self):
        prefix = block_to_prefix(block_of_ip(parse_ip("198.51.0.7")))
        assert str(prefix) == "198.51.0.0/24"


class TestPrefix:
    def test_parse(self):
        prefix = Prefix.parse("10.0.0.0/8")
        assert prefix.network == 0x0A000000
        assert prefix.length == 8

    def test_parse_requires_length(self):
        with pytest.raises(AddressError):
            Prefix.parse("10.0.0.0")

    def test_rejects_host_bits(self):
        with pytest.raises(AddressError):
            Prefix.parse("10.0.0.1/8")

    @pytest.mark.parametrize("length", [-1, 33])
    def test_rejects_bad_length(self, length):
        with pytest.raises(AddressError):
            Prefix(0, length)

    def test_from_ip_masks(self):
        prefix = Prefix.from_ip(parse_ip("10.1.2.3"), 16)
        assert str(prefix) == "10.1.0.0/16"

    def test_num_blocks(self):
        assert Prefix.parse("10.0.0.0/8").num_blocks() == 2**16
        assert Prefix.parse("10.0.0.0/24").num_blocks() == 1
        assert Prefix.parse("10.0.0.0/25").num_blocks() == 0

    def test_first_last_ip(self):
        prefix = Prefix.parse("192.0.2.0/24")
        assert prefix.last_ip() == parse_ip("192.0.2.255")

    def test_contains_ip(self):
        prefix = Prefix.parse("10.0.0.0/8")
        assert prefix.contains_ip(parse_ip("10.255.0.1"))
        assert not prefix.contains_ip(parse_ip("11.0.0.1"))

    def test_blocks_range(self):
        prefix = Prefix.parse("10.0.0.0/22")
        blocks = prefix.blocks()
        assert len(blocks) == 4
        assert blocks[0] == parse_ip("10.0.0.0") >> 8

    def test_blocks_empty_for_long(self):
        assert len(Prefix.parse("10.0.0.0/26").blocks()) == 0

    def test_subprefixes(self):
        subs = list(Prefix.parse("10.0.0.0/23").subprefixes(24))
        assert [str(s) for s in subs] == ["10.0.0.0/24", "10.0.1.0/24"]

    def test_subprefixes_rejects_shorter(self):
        with pytest.raises(AddressError):
            list(Prefix.parse("10.0.0.0/24").subprefixes(23))

    def test_hashable(self):
        assert len({Prefix.parse("10.0.0.0/8"), Prefix.parse("10.0.0.0/8")}) == 1

    @given(
        st.integers(min_value=0, max_value=MAX_IPV4),
        st.integers(min_value=0, max_value=32),
    )
    def test_from_ip_always_contains(self, address, length):
        prefix = Prefix.from_ip(address, length)
        assert prefix.contains_ip(address)

    @given(
        st.integers(min_value=0, max_value=MAX_IPV4),
        st.integers(min_value=0, max_value=24),
    )
    def test_block_count_matches_range(self, address, length):
        prefix = Prefix.from_ip(address, length)
        assert prefix.num_blocks() == len(prefix.blocks())

    @given(
        st.integers(min_value=0, max_value=MAX_IPV4),
        st.integers(min_value=1, max_value=32),
    )
    def test_netmask_hostmask_partition(self, address, length):
        prefix = Prefix.from_ip(address, length)
        assert prefix.netmask() ^ prefix.hostmask() == MAX_IPV4
        assert prefix.netmask() & prefix.hostmask() == 0

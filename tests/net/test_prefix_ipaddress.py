"""The one :class:`~repro.net.ipv4.Prefix` type against :mod:`ipaddress`.

For canonical IPv4 and IPv6 prefix text of every length, the family's
parse must agree with the standard library on the network and length,
print the same text back, refuse exactly the texts ``ipaddress``
refuses as having host bits set, count and place the whole blocks
(/24s, /48 sites) the network holds, and agree on which addresses it
contains.
"""

import ipaddress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.family import IPV4, IPV6
from repro.net.ipv4 import AddressError, Prefix

FAMILIES = {4: IPV4, 6: IPV6}
ADDRESS_TYPES = {4: ipaddress.IPv4Address, 6: ipaddress.IPv6Address}


@st.composite
def cases(draw):
    """``(family, address, length)``: an address anywhere in the
    family's space and a length anywhere in its range."""
    version = draw(st.sampled_from(sorted(FAMILIES)))
    family = FAMILIES[version]
    bits = family.ip_bits
    # Bias towards the edges of the space and the block length.
    address = draw(st.one_of(
        st.integers(0, (1 << bits) - 1),
        st.sampled_from([0, 1, (1 << bits) - 1, 1 << (bits - 1)]),
    ))
    length = draw(st.one_of(
        st.integers(0, bits),
        st.sampled_from([0, family.block_prefix_length - 1,
                         family.block_prefix_length,
                         family.block_prefix_length + 1, bits]),
    ))
    return family, ADDRESS_TYPES[version](address), length


def network_of(family, address, length):
    network_type = (
        ipaddress.IPv4Network if family is IPV4 else ipaddress.IPv6Network
    )
    return network_type((int(address), length), strict=False)


@given(cases())
@settings(max_examples=300)
def test_parse_and_text_match_ipaddress(case):
    family, address, length = case
    network = network_of(family, address, length)
    text = str(network)
    prefix = family.parse_prefix(text)
    assert prefix.network == int(network.network_address)
    assert prefix.length == network.prefixlen
    assert prefix.bits == family.ip_bits == network.max_prefixlen
    assert prefix.family is family
    assert prefix.last_ip() == int(network.broadcast_address)
    if getattr(network.network_address, "ipv4_mapped", None) is None:
        # (Python 3.13 prints IPv4-mapped addresses with a dotted tail.)
        assert str(prefix) == text
    assert family.parse_prefix(str(prefix)) == prefix


@given(cases())
@settings(max_examples=300)
def test_host_bits_refused_exactly_when_ipaddress_refuses(case):
    family, address, length = case
    text = f"{address}/{length}"
    try:
        ipaddress.ip_network(text, strict=True)
    except ValueError:
        with pytest.raises(AddressError):
            family.parse_prefix(text)
    else:
        assert family.parse_prefix(text).network == int(address)


@given(cases())
@settings(max_examples=300)
def test_blocks_match_ipaddress(case):
    family, address, length = case
    network = network_of(family, address, length)
    prefix = Prefix.from_ip(int(address), length, family.ip_bits)
    block_size = 1 << family.ip_block_shift
    first_block = int(network.network_address) // block_size
    assert prefix.first_block() == first_block
    if network.num_addresses >= block_size:
        assert prefix.num_blocks() == network.num_addresses // block_size
        last_block = int(network.broadcast_address) // block_size
        assert prefix.blocks() == range(first_block, last_block + 1)
    else:
        # Longer than a block: no whole block inside.
        assert prefix.num_blocks() == 0
        assert len(prefix.blocks()) == 0


@given(cases(), st.data())
@settings(max_examples=300)
def test_contains_ip_matches_ipaddress(case, data):
    family, address, length = case
    network = network_of(family, address, length)
    prefix = Prefix.from_ip(int(address), length, family.ip_bits)
    top = (1 << family.ip_bits) - 1
    low, high = int(network.network_address), int(network.broadcast_address)
    probes = {int(address), low, high, max(low - 1, 0), min(high + 1, top)}
    probes.add(data.draw(st.integers(0, top)))
    address_type = type(network.network_address)
    for probe in probes:
        assert prefix.contains_ip(probe) == (address_type(probe) in network)

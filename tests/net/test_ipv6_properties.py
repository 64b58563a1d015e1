"""Property-based tests for IPv6 text handling and site arithmetic.

Hypothesis generates addresses across the whole 128-bit space; the
invariants below pin the RFC 5952 behaviour the rest of the engine
relies on: parse and format are inverse bijections, formatting is
canonical (re-parsing a formatted address and formatting again is a
no-op), and ``IPV6.block_of_ip`` maps exactly the addresses of a /48
to its site id.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.family import IPV6
from repro.net.ipv4 import Prefix
from repro.net.ipv6 import format_ip6, parse_ip6

SITE_SHIFT = IPV6.ip_block_shift
site_of = IPV6.block_of_ip

MAX_IP6 = (1 << 128) - 1
addresses = st.integers(min_value=0, max_value=MAX_IP6)
sites = st.integers(min_value=0, max_value=(1 << 48) - 1)


@settings(max_examples=300)
@given(addresses)
def test_format_parse_roundtrip(value):
    assert parse_ip6(format_ip6(value)) == value


@settings(max_examples=300)
@given(addresses)
def test_format_is_canonical(value):
    # RFC 5952 gives every address exactly one canonical text form, so
    # formatting is idempotent under re-parsing.
    text = format_ip6(value)
    assert format_ip6(parse_ip6(text)) == text


@given(addresses)
def test_format_is_lowercase_and_compact(value):
    text = format_ip6(value)
    assert text == text.lower()
    assert ":::" not in text
    assert text.count("::") <= 1


@settings(max_examples=200)
@given(st.lists(st.integers(min_value=0, max_value=0xFFFF), min_size=8, max_size=8))
def test_parse_full_form(groups):
    text = ":".join(f"{g:x}" for g in groups)
    expected = 0
    for group in groups:
        expected = (expected << 16) | group
    assert parse_ip6(text) == expected


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=0xFFFFFFFF))
def test_parse_embedded_ipv4(v4):
    octets = [(v4 >> shift) & 0xFF for shift in (24, 16, 8, 0)]
    dotted = ".".join(str(o) for o in octets)
    assert parse_ip6(f"::ffff:{dotted}") == (0xFFFF << 32) | v4


@given(sites)
def test_block_of_ip_covers_exactly_the_slash48(site):
    first = site << SITE_SHIFT
    last = first + (1 << SITE_SHIFT) - 1
    assert site_of(first) == site
    assert site_of(last) == site
    if first > 0:
        assert site_of(first - 1) == site - 1
    if last < MAX_IP6:
        assert site_of(last + 1) == site + 1


@given(sites)
def test_prefix_from_site_roundtrip(site):
    prefix = Prefix(network=site << SITE_SHIFT, length=48, bits=128)
    assert prefix == IPV6.block_to_prefix(site)
    assert prefix.first_block() == site
    assert site_of(prefix.last_ip()) == site
    assert IPV6.parse_prefix(str(prefix)) == prefix

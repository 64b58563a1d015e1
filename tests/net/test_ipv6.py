"""Tests for IPv6 address/prefix plumbing and the candidate prototype."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.ipv6_candidates import Ipv6CandidateResult, ipv6_candidate_sites
from repro.net.ipv6 import (
    MAX_IPV6,
    Ipv6Error,
    Ipv6Prefix,
    format_ip6,
    parse_ip6,
    site_of_ip6,
)


class TestParsing:
    @pytest.mark.parametrize(
        ("text", "value"),
        [
            ("::", 0),
            ("::1", 1),
            ("2001:db8::", 0x20010DB8 << 96),
            ("2001:db8::1", (0x20010DB8 << 96) | 1),
            (
                "2001:0db8:0000:0000:0000:0000:0000:0001",
                (0x20010DB8 << 96) | 1,
            ),
            ("fe80::1%0" .replace("%0", ""), (0xFE80 << 112) | 1),
            ("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff", MAX_IPV6),
            ("::ffff:192.0.2.1", (0xFFFF << 32) | 0xC0000201),
        ],
    )
    def test_parse(self, text, value):
        assert parse_ip6(text) == value

    @pytest.mark.parametrize(
        "text",
        [
            "",
            ":::",
            "1::2::3",
            "2001:db8",
            "2001:db8:0:0:0:0:0:0:1",
            "g::1",
            "12345::",
            "::ffff:300.0.2.1",
            "::ffff:1.2.3",
        ],
    )
    def test_parse_rejects(self, text):
        with pytest.raises(Ipv6Error):
            parse_ip6(text)

    @pytest.mark.parametrize(
        ("value", "text"),
        [
            (0, "::"),
            (1, "::1"),
            ((0x20010DB8 << 96) | 1, "2001:db8::1"),
            (MAX_IPV6, "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff"),
            # RFC 5952: compress the longest run, leftmost on ties.
            (parse_ip6("2001:0:0:1:0:0:0:1"), "2001:0:0:1::1"),
            (parse_ip6("2001:db8:0:1:1:1:1:1"), "2001:db8:0:1:1:1:1:1"),
        ],
    )
    def test_format_canonical(self, value, text):
        assert format_ip6(value) == text

    def test_format_rejects_out_of_range(self):
        with pytest.raises(Ipv6Error):
            format_ip6(-1)

    @given(st.integers(min_value=0, max_value=MAX_IPV6))
    def test_roundtrip(self, value):
        assert parse_ip6(format_ip6(value)) == value


class TestPrefix:
    def test_parse(self):
        prefix = Ipv6Prefix.parse("2001:db8::/32")
        assert prefix.length == 32
        assert str(prefix) == "2001:db8::/32"

    def test_host_bits_rejected(self):
        with pytest.raises(Ipv6Error):
            Ipv6Prefix.parse("2001:db8::1/32")

    def test_contains_ip(self):
        prefix = Ipv6Prefix.parse("2001:db8::/32")
        assert prefix.contains_ip(parse_ip6("2001:db8:dead::beef"))
        assert not prefix.contains_ip(parse_ip6("2001:db9::1"))

    def test_sites(self):
        prefix = Ipv6Prefix.parse("2001:db8::/32")
        assert prefix.num_sites() == 2**16
        site = site_of_ip6(parse_ip6("2001:db8:7::1"))
        assert prefix.contains_site(site)
        assert not prefix.contains_site(site_of_ip6(parse_ip6("2001:db9::1")))

    def test_long_prefix_has_no_sites(self):
        assert Ipv6Prefix.parse("2001:db8::/64").num_sites() == 0

    def test_first_site(self):
        prefix = Ipv6Prefix.parse("2001:db8::/48")
        assert prefix.first_site() == site_of_ip6(parse_ip6("2001:db8::1"))


def candidate_sites_by_scan(observed_dst, observed_src, announced, hitlist):
    """The report's original reading: every site against every prefix."""
    drops = {"unannounced": 0, "hitlist": 0, "sources": 0}
    candidates = []
    for site in sorted(observed_dst):
        if not any(prefix.contains_site(site) for prefix in announced):
            drops["unannounced"] += 1
        elif site in hitlist:
            drops["hitlist"] += 1
        elif site in observed_src:
            drops["sources"] += 1
        else:
            candidates.append(site)
    return Ipv6CandidateResult(
        candidate_sites=tuple(candidates),
        observed=len(observed_dst),
        dropped_unannounced=drops["unannounced"],
        dropped_hitlist=drops["hitlist"],
        dropped_sources=drops["sources"],
    )


#: 2001:db8::/32 — announcements are drawn inside its first /40, so
#: they nest, overlap and abut.
NEIGHBOURHOOD = parse_ip6("2001:db8::")


@st.composite
def announcement_spaces(draw):
    """``(announced, observed dst, observed src, hitlist)`` site sets."""
    announced = [
        Ipv6Prefix.from_ip(NEIGHBOURHOOD | (site << 80) | (subnet << 64), length)
        for site, subnet, length in draw(
            st.lists(
                st.tuples(
                    st.integers(0, 255), st.integers(0, 0xFFFF), st.integers(0, 64)
                ),
                max_size=8,
            )
        )
    ]
    # Each interval's first and last site and both neighbours, plus
    # sites anywhere around the neighbourhood.
    edges = set()
    for prefix in announced:
        if prefix.num_sites():
            first = prefix.first_site()
            end = first + prefix.num_sites()
            edges |= {first - 1, first, end - 1, end}
    base = NEIGHBOURHOOD >> 80
    around = draw(st.sets(st.integers(base - 4, base + 260), max_size=12))
    anywhere = draw(st.sets(st.integers(0, 2**48 - 1), max_size=3))
    observed = edges | around | anywhere
    pick = st.sets(st.sampled_from(sorted(observed))) if observed else st.just(set())
    return announced, observed, draw(pick), draw(pick)


class TestCandidatePrototype:
    @given(announcement_spaces())
    def test_interval_lookup_matches_the_scan(self, space):
        announced, observed, sources, hitlist = space
        assert ipv6_candidate_sites(
            observed, sources, announced, hitlist
        ) == candidate_sites_by_scan(observed, sources, announced, hitlist)

    def make_space(self):
        announced = [Ipv6Prefix.parse("2001:db8::/32")]
        site = lambda text: site_of_ip6(parse_ip6(text))  # noqa: E731
        return announced, site

    def test_candidate_selection(self):
        announced, site = self.make_space()
        observed_dst = {
            site("2001:db8:1::1"),   # clean candidate
            site("2001:db8:2::1"),   # in hitlist
            site("2001:db8:3::1"),   # also a source
            site("3fff:1::1"),       # unannounced
        }
        result = ipv6_candidate_sites(
            observed_dst_sites=observed_dst,
            observed_src_sites={site("2001:db8:3::1")},
            announced=announced,
            hitlist_sites={site("2001:db8:2::1")},
        )
        assert result.candidate_sites == (site("2001:db8:1::1"),)
        assert result.observed == 4
        assert result.dropped_unannounced == 1
        assert result.dropped_hitlist == 1
        assert result.dropped_sources == 1

    def test_empty_observation(self):
        announced, _ = self.make_space()
        result = ipv6_candidate_sites(set(), set(), announced, set())
        assert result.candidate_sites == ()
        assert result.observed == 0

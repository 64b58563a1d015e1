"""IPv6 addresses and prefixes (groundwork for the paper's future work).

Section 9 defers IPv6 meta-telescopes to future work: the space is too
vast to enumerate, assignment practices vary, and hitlists are
incomplete.  This module provides the address plumbing that work needs
— parsing/formatting per RFC 4291 with RFC 5952 canonical output, and
prefix arithmetic — plus the *site block* notion (/48) that plays the
role the /24 plays in IPv4: ``site_of_ip6(ip) == int(ip) >> 80``.

The candidate-enumeration prototype lives in
:mod:`repro.core.ipv6_candidates`.
"""

from __future__ import annotations

from dataclasses import dataclass

MAX_IPV6 = 2**128 - 1
#: Bits below a /48 site prefix.
SITE_SHIFT = 128 - 48


class Ipv6Error(ValueError):
    """Raised for malformed IPv6 addresses or prefixes."""


def parse_ip6(text: str) -> int:
    """Parse an IPv6 address (RFC 4291 text forms) to a 128-bit int.

    Supports full form, ``::`` compression and the embedded-IPv4 tail
    (``::ffff:192.0.2.1``).
    """
    text = text.strip()
    if not text:
        raise Ipv6Error("empty address")
    if text.count("::") > 1:
        raise Ipv6Error(f"multiple '::' in {text!r}")

    # Embedded IPv4 tail.
    v4_value = None
    if "." in text:
        head, _, tail = text.rpartition(":")
        if not head:
            raise Ipv6Error(f"malformed embedded IPv4 in {text!r}")
        v4_value = _parse_v4_tail(tail)
        # Replace the IPv4 part with two hextets' worth of groups.
        text = head + ":" + f"{v4_value >> 16:x}:{v4_value & 0xFFFF:x}"
        if head.endswith(":") and not head.endswith("::"):
            raise Ipv6Error(f"malformed embedded IPv4 in {text!r}")

    if "::" in text:
        left_text, right_text = text.split("::", 1)
        left = _parse_groups(left_text)
        right = _parse_groups(right_text)
        missing = 8 - len(left) - len(right)
        if missing < 1:
            raise Ipv6Error(f"'::' compresses nothing in {text!r}")
        groups = left + [0] * missing + right
    else:
        groups = _parse_groups(text)
        if len(groups) != 8:
            raise Ipv6Error(f"need 8 groups in {text!r}")
    value = 0
    for group in groups:
        value = (value << 16) | group
    return value


def _parse_groups(text: str) -> list[int]:
    if not text:
        return []
    groups = []
    for part in text.split(":"):
        if not part or len(part) > 4:
            raise Ipv6Error(f"bad group {part!r}")
        try:
            groups.append(int(part, 16))
        except ValueError as error:
            raise Ipv6Error(f"bad group {part!r}") from error
    return groups


def _parse_v4_tail(tail: str) -> int:
    octets = tail.split(".")
    if len(octets) != 4:
        raise Ipv6Error(f"bad embedded IPv4 {tail!r}")
    value = 0
    for octet_text in octets:
        try:
            octet = int(octet_text)
        except ValueError as error:
            raise Ipv6Error(f"bad embedded IPv4 {tail!r}") from error
        if not 0 <= octet <= 255:
            raise Ipv6Error(f"bad embedded IPv4 {tail!r}")
        value = (value << 8) | octet
    return value


def format_ip6(value: int) -> str:
    """RFC 5952 canonical text: lowercase, longest zero run as ``::``."""
    if not 0 <= value <= MAX_IPV6:
        raise Ipv6Error(f"not a 128-bit address: {value!r}")
    groups = [(value >> (16 * (7 - i))) & 0xFFFF for i in range(8)]

    # Longest run of zero groups (length >= 2), leftmost on ties.
    best_start, best_len = -1, 0
    run_start, run_len = -1, 0
    for i, group in enumerate(groups + [-1]):
        if group == 0:
            if run_start < 0:
                run_start, run_len = i, 0
            run_len += 1
        else:
            if run_len > best_len:
                best_start, best_len = run_start, run_len
            run_start, run_len = -1, 0
    if best_len < 2:
        return ":".join(f"{g:x}" for g in groups)
    left = ":".join(f"{g:x}" for g in groups[:best_start])
    right = ":".join(f"{g:x}" for g in groups[best_start + best_len:])
    return f"{left}::{right}"


def site_of_ip6(value: int) -> int:
    """The /48 site-block id containing an address."""
    return value >> SITE_SHIFT


@dataclass(frozen=True, slots=True)
class Ipv6Prefix:
    """An IPv6 prefix with zeroed host bits."""

    network: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 128:
            raise Ipv6Error(f"prefix length out of range: {self.length}")
        if not 0 <= self.network <= MAX_IPV6:
            raise Ipv6Error("network out of range")
        if self.network & self.hostmask():
            raise Ipv6Error("host bits set")

    @classmethod
    def parse(cls, text: str) -> "Ipv6Prefix":
        """Parse ``addr/len``."""
        address_text, _, length_text = text.partition("/")
        if not length_text:
            raise Ipv6Error(f"missing prefix length in {text!r}")
        return cls(parse_ip6(address_text), int(length_text))

    @classmethod
    def from_ip(cls, ip: int, length: int) -> "Ipv6Prefix":
        """Build the length-``length`` prefix covering ``ip``."""
        if not 0 <= length <= 128:
            raise Ipv6Error(f"prefix length out of range: {length}")
        mask = 0 if length == 0 else (MAX_IPV6 << (128 - length)) & MAX_IPV6
        return cls(ip & mask, length)

    def netmask(self) -> int:
        """The network mask."""
        if self.length == 0:
            return 0
        return (MAX_IPV6 << (128 - self.length)) & MAX_IPV6

    def hostmask(self) -> int:
        """The host mask."""
        return MAX_IPV6 ^ self.netmask()

    def contains_ip(self, value: int) -> bool:
        """True when the address falls inside the prefix."""
        return (value & self.netmask()) == self.network

    def contains_site(self, site: int) -> bool:
        """True when /48 ``site`` lies entirely inside the prefix."""
        if self.length > 48:
            return False
        return (site >> (48 - self.length)) == (self.network >> (128 - self.length))

    def num_sites(self) -> int:
        """Number of /48 site blocks covered (0 for longer prefixes)."""
        if self.length > 48:
            return 0
        return 1 << (48 - self.length)

    def first_site(self) -> int:
        """The first /48 site id inside the prefix."""
        return self.network >> SITE_SHIFT

    def last_ip(self) -> int:
        """The highest address inside the prefix."""
        return self.network | self.hostmask()

    # Block-space aliases so v4 Prefix and Ipv6Prefix share one duck
    # interface (blocks are /48 sites here, /24s for IPv4).

    def num_blocks(self) -> int:
        """Alias of :meth:`num_sites` for the generic prefix duck."""
        return self.num_sites()

    def first_block(self) -> int:
        """Alias of :meth:`first_site` for the generic prefix duck."""
        return self.first_site()

    def __str__(self) -> str:
        return f"{format_ip6(self.network)}/{self.length}"

"""IPv4 address and prefix arithmetic.

Addresses are unsigned 32-bit integers; /24 subnets are *block ids*
(``ip >> 8``).  We deliberately avoid :mod:`ipaddress` in hot paths: the
inference pipeline handles millions of blocks and needs integer/numpy
arithmetic, not per-object allocation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator

MAX_IPV4 = 2**32 - 1
#: Number of /24 blocks in the full IPv4 space.
NUM_BLOCKS = 2**24

_DOTTED_QUAD = re.compile(r"^(\d{1,3})\.(\d{1,3})\.(\d{1,3})\.(\d{1,3})$")


class AddressError(ValueError):
    """Raised for malformed addresses or prefixes."""


def parse_ip(text: str) -> int:
    """Parse dotted-quad ``text`` into a 32-bit integer.

    >>> parse_ip("192.0.2.1")
    3221225985
    """
    match = _DOTTED_QUAD.match(text.strip())
    if match is None:
        raise AddressError(f"not a dotted-quad IPv4 address: {text!r}")
    octets = [int(part) for part in match.groups()]
    if any(octet > 255 for octet in octets):
        raise AddressError(f"octet out of range in {text!r}")
    return (octets[0] << 24) | (octets[1] << 16) | (octets[2] << 8) | octets[3]


def format_ip(value: int) -> str:
    """Format a 32-bit integer as a dotted quad.

    >>> format_ip(3221225985)
    '192.0.2.1'
    """
    if not 0 <= value <= MAX_IPV4:
        raise AddressError(f"not a 32-bit address: {value!r}")
    return ".".join(
        str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0)
    )


def block_of_ip(ip: int) -> int:
    """Return the /24 block id containing ``ip``."""
    return ip >> 8


@dataclass(frozen=True, slots=True)
class Prefix:
    """An IPv4 prefix, canonicalised so host bits are zero.

    ``Prefix(0xC0000200, 24)`` is ``192.0.2.0/24``.  Instances are
    hashable and ordered by (network, length), so more-specifics of the
    same network sort after their covering prefix.
    """

    network: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 32:
            raise AddressError(f"prefix length out of range: {self.length}")
        if not 0 <= self.network <= MAX_IPV4:
            raise AddressError(f"network out of range: {self.network}")
        if self.network & (self.hostmask()):
            raise AddressError(
                f"host bits set in {format_ip(self.network)}/{self.length}"
            )

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``"a.b.c.d/len"``; host bits must be zero.

        >>> Prefix.parse("10.0.0.0/8")
        Prefix.parse('10.0.0.0/8')
        """
        network_text, _, length_text = text.partition("/")
        if not length_text:
            raise AddressError(f"missing prefix length in {text!r}")
        return cls(parse_ip(network_text), int(length_text))

    @classmethod
    def from_ip(cls, ip: int, length: int) -> "Prefix":
        """Build the length-``length`` prefix covering ``ip``."""
        mask = _netmask(length)
        return cls(ip & mask, length)

    def netmask(self) -> int:
        """The network mask as a 32-bit integer."""
        return _netmask(self.length)

    def hostmask(self) -> int:
        """The host mask (inverse of the netmask)."""
        return MAX_IPV4 ^ _netmask(self.length)

    def last_ip(self) -> int:
        """The highest address inside the prefix."""
        return self.network | self.hostmask()

    def num_blocks(self) -> int:
        """Number of whole /24 blocks covered (0 for prefixes longer than /24)."""
        if self.length > 24:
            return 0
        return 1 << (24 - self.length)

    def first_block(self) -> int:
        """The first /24 block id inside the prefix."""
        return self.network >> 8

    def contains_ip(self, ip: int) -> bool:
        """True if ``ip`` falls inside this prefix."""
        return (ip & self.netmask()) == self.network

    def blocks(self) -> range:
        """Range of /24 block ids covered (empty for prefixes longer than /24)."""
        if self.length > 24:
            return range(0)
        start = self.first_block()
        return range(start, start + self.num_blocks())

    def subprefixes(self, length: int) -> Iterator["Prefix"]:
        """Yield all sub-prefixes of the given (longer) length, in order."""
        if length < self.length:
            raise AddressError(
                f"cannot split /{self.length} into shorter /{length}"
            )
        step = 1 << (32 - length)
        for network in range(self.network, self.last_ip() + 1, step):
            yield Prefix(network, length)

    def __str__(self) -> str:
        return f"{format_ip(self.network)}/{self.length}"

    def __repr__(self) -> str:
        return f"Prefix.parse({str(self)!r})"


def _netmask(length: int) -> int:
    if not 0 <= length <= 32:
        raise AddressError(f"prefix length out of range: {length}")
    if length == 0:
        return 0
    return (MAX_IPV4 << (32 - length)) & MAX_IPV4


def block_to_prefix(block: int) -> Prefix:
    """Return the /24 :class:`Prefix` for a block id."""
    return Prefix(block << 8, 24)

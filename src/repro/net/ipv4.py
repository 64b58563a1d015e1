"""IPv4 address arithmetic, and the one prefix type of both families.

Addresses are unsigned 32-bit integers; /24 subnets are *block ids*
(``ip >> 8``).  :class:`Prefix` carries its address width, so the same
class is an IPv6 prefix over /48 blocks when ``bits`` is 128.  We
deliberately avoid :mod:`ipaddress` in hot paths: the inference
pipeline handles millions of blocks and needs integer/numpy
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
    """An IPv4 or IPv6 prefix, canonicalised so host bits are zero.

    ``Prefix(0xC0000200, 24)`` is ``192.0.2.0/24``; ``bits`` is the
    address width, 32 (IPv4, the default) or 128 (IPv6), and
    :attr:`family` reads its block arithmetic and text forms from it.
    Instances are hashable: equality and hashing are the tuple of the
    three ints.
    """

    network: int
    length: int
    bits: int = 32

    def __post_init__(self) -> None:
        if self.bits not in (32, 128):
            raise AddressError(f"address width is not 32 or 128: {self.bits}")
        if not 0 <= self.length <= self.bits:
            raise AddressError(f"prefix length out of range: {self.length}")
        if not 0 <= self.network < 1 << self.bits:
            raise AddressError(f"network out of range: {self.network}")
        if self.network & (self.hostmask()):
            raise AddressError(f"host bits set in {self}")

    @classmethod
    def parse(cls, text: str, bits: int = 32) -> "Prefix":
        """Parse ``"address/len"``; host bits must be zero.

        >>> Prefix.parse("10.0.0.0/8")
        Prefix.parse('10.0.0.0/8')
        """
        network_text, _, length_text = text.partition("/")
        if not length_text:
            raise AddressError(f"missing prefix length in {text!r}")
        network = _FAMILIES[bits].parse_ip(network_text)
        return cls(network, int(length_text), bits)

    @classmethod
    def from_ip(cls, ip: int, length: int, bits: int = 32) -> "Prefix":
        """Build the length-``length`` prefix covering ``ip``."""
        return cls(ip & _netmask(length, bits), length, bits)

    @property
    def family(self) -> "AddressFamily":
        """The :class:`~repro.net.family.AddressFamily` of the prefix."""
        return _FAMILIES[self.bits]

    def netmask(self) -> int:
        """The network mask as an integer of the address width."""
        return _netmask(self.length, self.bits)

    def hostmask(self) -> int:
        """The host mask (inverse of the netmask)."""
        return (1 << (self.bits - self.length)) - 1

    def last_ip(self) -> int:
        """The highest address inside the prefix."""
        return self.network | self.hostmask()

    def num_blocks(self) -> int:
        """Number of whole blocks covered (/24s for IPv4, /48s for IPv6;
        0 for prefixes longer than a block)."""
        block_length = self.family.block_prefix_length
        if self.length > block_length:
            return 0
        return 1 << (block_length - self.length)

    def first_block(self) -> int:
        """The first block id inside the prefix."""
        return self.network >> self.family.ip_block_shift

    def contains_ip(self, ip: int) -> bool:
        """True if ``ip`` falls inside this prefix."""
        return (ip & self.netmask()) == self.network

    def blocks(self) -> range:
        """Range of block ids covered (empty for prefixes longer than a block)."""
        start = self.first_block()
        return range(start, start + self.num_blocks())

    def subprefixes(self, length: int) -> Iterator["Prefix"]:
        """Yield all sub-prefixes of the given (longer) length, in order."""
        if length < self.length:
            raise AddressError(
                f"cannot split /{self.length} into shorter /{length}"
            )
        step = 1 << (self.bits - length)
        for network in range(self.network, self.last_ip() + 1, step):
            yield Prefix(network, length, self.bits)

    def __str__(self) -> str:
        return f"{self.family.format_ip(self.network)}/{self.length}"

    def __repr__(self) -> str:
        if self.bits == 32:
            return f"Prefix.parse({str(self)!r})"
        return f"Prefix.parse({str(self)!r}, bits={self.bits})"


def _netmask(length: int, bits: int) -> int:
    if not 0 <= length <= bits:
        raise AddressError(f"prefix length out of range: {length}")
    return (1 << bits) - (1 << (bits - length))


def block_to_prefix(block: int) -> Prefix:
    """Return the /24 :class:`Prefix` for a block id."""
    return Prefix(block << 8, 24)


# The families read their prefixes from this module, so it binds them
# last: by then ``Prefix`` and the text helpers exist for them to import.
from repro.net.family import IPV4, IPV6, AddressFamily  # noqa: E402

#: Each address width's family (what :attr:`Prefix.family` reads).
_FAMILIES: dict[int, AddressFamily] = {IPV4.ip_bits: IPV4, IPV6.ip_bits: IPV6}

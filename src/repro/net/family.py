"""Address families: the one place block-space arithmetic lives.

The engine classifies *blocks* — /24s for IPv4, /48 sites for IPv6 —
and everything between ingest and the service speaks block ids (plain
int64).  An :class:`AddressFamily` bundles the per-family constants and
conversions so the pipeline never hardcodes ``>> 8`` or ``np.uint32``:

* **Engine key.**  Flow columns hold one unsigned integer per address —
  the full 32 bits for IPv4, the *upper 64 bits* (the /64 id) for IPv6.
  The low 64 bits of a v6 address never influence classification (the
  block is a /48), so :class:`~repro.traffic.flows.FlowTable` keeps them
  in optional ``*_ip_lo`` side columns for fidelity only.
* **Block id.**  ``block_of(keys)`` maps engine keys to int64 block ids
  with the family's key shift (8 for v4, 16 for v6).  This is the single
  named home of the former ``ip >> 8`` literals.
* **Text.**  ``parse_ip``/``format_ip``/``parse_prefix``/``format_block``
  round-trip the family's textual forms, and ``block_to_prefix`` gives
  the canonical prefix object for a block.  Both families share the one
  :class:`~repro.net.ipv4.Prefix` type; a prefix's ``bits`` (32 or 128)
  names its family.

IPv6 caveat: block ids and engine keys are consumed as signed int64 by
the numpy pipeline, so v6 addresses must sit below ``8000::`` — true for
all currently allocated global unicast space (``2000::/3``), and
enforced by the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.net.ipv4 import (
    AddressError,
    Prefix,
    format_ip,
    parse_ip,
)
from repro.net.ipv6 import format_ip6, parse_ip6

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.special import SpecialPurposeRegistry

FAMILY_IPV4 = "ipv4"
FAMILY_IPV6 = "ipv6"


@dataclass(frozen=True, slots=True)
class AddressFamily:
    """Constants and conversions for one address family's block space.

    ``ip_*`` values describe full addresses; ``key_*`` values describe
    the engine key actually stored in flow columns (identical for v4,
    the upper 64 bits for v6).
    """

    name: str
    ip_bits: int
    key_bits: int
    block_prefix_length: int
    key_dtype: np.dtype

    @property
    def ip_block_shift(self) -> int:
        """Right-shift from a full address to its block id."""
        return self.ip_bits - self.block_prefix_length

    @property
    def key_block_shift(self) -> int:
        """Right-shift from an engine key to its block id."""
        return self.ip_block_shift - (self.ip_bits - self.key_bits)

    @property
    def num_blocks(self) -> int:
        """Size of the family's block-id space."""
        return 1 << self.block_prefix_length

    # -- array-side arithmetic (the hot-path contract) -----------------

    def block_of(self, keys: np.ndarray) -> np.ndarray:
        """Map an array of engine keys to int64 block ids.

        The single named home of the former ``ip >> 8`` literals.
        """
        keys = np.asarray(keys)
        shift = keys.dtype.type(self.key_block_shift)
        return (keys >> shift).astype(np.int64)

    # -- scalar conversions --------------------------------------------

    def block_of_ip(self, ip: int) -> int:
        """Block id containing a full address."""
        return ip >> self.ip_block_shift

    def block_to_ip(self, block: int) -> int:
        """Network (first) address of a block."""
        return block << self.ip_block_shift

    # -- text ----------------------------------------------------------

    def parse_ip(self, text: str) -> int:
        """Parse the family's textual address form to an integer."""
        if self.name == FAMILY_IPV4:
            return parse_ip(text)
        return parse_ip6(text)

    def format_ip(self, value: int) -> str:
        """Format an integer address in the family's canonical text."""
        if self.name == FAMILY_IPV4:
            return format_ip(value)
        return format_ip6(value)

    def parse_prefix(self, text: str) -> Prefix:
        """Parse ``addr/len`` into a prefix of this family."""
        return Prefix.parse(text, self.ip_bits)

    def block_to_prefix(self, block: int) -> Prefix:
        """Canonical prefix object for a block id."""
        return Prefix(
            self.block_to_ip(block), self.block_prefix_length, self.ip_bits
        )

    def format_block(self, block: int) -> str:
        """Canonical ``addr/len`` text for a block id."""
        return str(self.block_to_prefix(block))

    def special_registry(self) -> "SpecialPurposeRegistry":
        """The family's default special-purpose (IANA) registry."""
        from repro.net import special

        if self.name == FAMILY_IPV4:
            return special.SPECIAL_PURPOSE_REGISTRY
        return special.SPECIAL_PURPOSE_REGISTRY_V6


IPV4 = AddressFamily(
    name=FAMILY_IPV4,
    ip_bits=32,
    key_bits=32,
    block_prefix_length=24,
    key_dtype=np.dtype(np.uint32),
)

IPV6 = AddressFamily(
    name=FAMILY_IPV6,
    ip_bits=128,
    key_bits=64,
    block_prefix_length=48,
    key_dtype=np.dtype(np.uint64),
)

_FAMILIES = {IPV4.name: IPV4, IPV6.name: IPV6}


def family(name: str) -> AddressFamily:
    """Look up an address family by name (``"ipv4"`` / ``"ipv6"``)."""
    try:
        return _FAMILIES[name]
    except KeyError:
        raise AddressError(f"unknown address family: {name!r}") from None


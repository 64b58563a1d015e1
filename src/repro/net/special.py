"""Special-purpose address registries (RFC 6890 / IANA, both families).

Pipeline step 4 ("Private / Multicast / Reserved") must drop any block
that is not usable on the public Internet.  This module carries the
full special-purpose registries — the RFC 6890 IPv4 table and the IANA
IPv6 special-purpose table — and answers block-level membership queries
as vectorised numpy queries over block-id arrays.  Blocks are /24s for
IPv4 and /48 sites for IPv6.  Both registries hold the one
:class:`~repro.net.ipv4.Prefix` type and answer through the one
block-span table (:func:`~repro.net.blocksets.block_spans`) the BGP
RIB's step 5 probes too; an entry longer than a block taints its block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.net.blocksets import block_spans, interval_covered_mask
from repro.net.family import IPV4, IPV6, AddressFamily
from repro.net.ipv4 import Prefix


@dataclass(frozen=True, slots=True)
class SpecialPurposeEntry:
    """One row of a special-purpose registry."""

    prefix: Prefix
    name: str
    #: True if the block may appear as a source on the public Internet
    #: (e.g. shared address space can leak); irrelevant to filtering but
    #: kept for fidelity with RFC 6890's attribute table.
    globally_reachable: bool


#: RFC 6890 special-purpose IPv4 registry (plus multicast and class E).
_REGISTRY_ROWS: Sequence[tuple[str, str, bool]] = (
    ("0.0.0.0/8", "this host on this network", False),
    ("10.0.0.0/8", "private-use", False),
    ("100.64.0.0/10", "shared address space (CGN)", False),
    ("127.0.0.0/8", "loopback", False),
    ("169.254.0.0/16", "link local", False),
    ("172.16.0.0/12", "private-use", False),
    ("192.0.0.0/24", "IETF protocol assignments", False),
    ("192.0.2.0/24", "documentation (TEST-NET-1)", False),
    ("192.88.99.0/24", "6to4 relay anycast (deprecated)", True),
    ("192.168.0.0/16", "private-use", False),
    ("198.18.0.0/15", "benchmarking", False),
    ("198.51.100.0/24", "documentation (TEST-NET-2)", False),
    ("203.0.113.0/24", "documentation (TEST-NET-3)", False),
    ("224.0.0.0/4", "multicast", False),
    ("240.0.0.0/4", "reserved (class E)", False),
    ("255.255.255.255/32", "limited broadcast", False),
)

#: IANA IPv6 special-purpose registry (condensed to the filtering-relevant
#: rows; everything outside 2000::/3 is non-global anyway, but the
#: pipeline checks membership explicitly rather than assuming).
_REGISTRY_ROWS_V6: Sequence[tuple[str, str, bool]] = (
    ("::/128", "unspecified", False),
    ("::1/128", "loopback", False),
    ("::ffff:0:0/96", "IPv4-mapped", False),
    ("64:ff9b::/96", "NAT64 well-known prefix", True),
    ("100::/64", "discard-only", False),
    ("2001::/23", "IETF protocol assignments", False),
    ("2001:db8::/32", "documentation", False),
    ("2002::/16", "6to4", True),
    ("3fff::/20", "documentation (extended)", False),
    ("fc00::/7", "unique-local", False),
    ("fe80::/10", "link local", False),
    ("ff00::/8", "multicast", False),
)


class SpecialPurposeRegistry:
    """Answers "is this block special-purpose?" queries.

    The default instances, :data:`SPECIAL_PURPOSE_REGISTRY` (RFC 6890
    IPv4) and :data:`SPECIAL_PURPOSE_REGISTRY_V6` (IANA IPv6), cover the
    public tables.  A custom registry can be built for tests.
    """

    def __init__(
        self,
        entries: Iterable[SpecialPurposeEntry],
        family: AddressFamily = IPV4,
    ) -> None:
        self.family = family
        self.entries: tuple[SpecialPurposeEntry, ...] = tuple(entries)
        # Every entry spans its blocks: a host route or similar taints
        # its whole containing block, because the pipeline works at
        # block granularity and must not select a block that overlaps
        # reserved space at all.
        self._starts, self._ends = block_spans(
            entry.prefix for entry in self.entries
        )

    def special_mask(self, blocks: np.ndarray) -> np.ndarray:
        """Which ``blocks`` (an int array) overlap a special-purpose
        prefix: a boolean array, True where the block is special."""
        return interval_covered_mask(self._starts, self._ends, blocks)


def _registry(
    rows: Sequence[tuple[str, str, bool]], family: AddressFamily
) -> SpecialPurposeRegistry:
    return SpecialPurposeRegistry(
        (
            SpecialPurposeEntry(family.parse_prefix(text), name, reachable)
            for text, name, reachable in rows
        ),
        family=family,
    )


#: Module-level default registries.
SPECIAL_PURPOSE_REGISTRY = _registry(_REGISTRY_ROWS, IPV4)
SPECIAL_PURPOSE_REGISTRY_V6 = _registry(_REGISTRY_ROWS_V6, IPV6)

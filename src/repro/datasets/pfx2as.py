"""CAIDA-style prefix-to-AS mapping, derived from daily RIB snapshots."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bgp.rib import RoutingTable


@dataclass
class PrefixToAsMap:
    """Longest-prefix-match map from address space to origin ASN.

    Lookups are vectorised per prefix length: for a query block we probe
    each announced length from most to least specific and keep the first
    hit — the standard longest-prefix-match semantics of CAIDA pfx2as.
    """

    _levels: list[tuple[int, np.ndarray, np.ndarray]] = field(
        default_factory=list, repr=False
    )

    @classmethod
    def from_routing_table(cls, table: RoutingTable) -> "PrefixToAsMap":
        """Build from a daily RIB union, mirroring CAIDA's pipeline."""
        by_length: dict[int, list[tuple[int, int]]] = {}
        for announcement in table.announcements:
            prefix = announcement.prefix
            if prefix.length <= 24:
                by_length.setdefault(prefix.length, []).append(
                    (prefix.network >> (32 - prefix.length), announcement.origin_asn)
                )
        levels = []
        for length in sorted(by_length, reverse=True):  # most specific first
            rows = sorted(by_length[length])
            keys = np.array([key for key, _ in rows], dtype=np.int64)
            asns = np.array([asn for _, asn in rows], dtype=np.int64)
            levels.append((length, keys, asns))
        return cls(levels)

    def asns_of_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """Vectorised longest-prefix-match; -1 for unmapped blocks."""
        queried = np.asarray(blocks, dtype=np.int64)
        result = np.full(len(queried), -1, dtype=np.int64)
        unresolved = np.ones(len(queried), dtype=bool)
        for length, keys, asns in self._levels:
            if not unresolved.any() or len(keys) == 0:
                break
            truncated = queried >> (24 - length)
            index = np.searchsorted(keys, truncated)
            index = np.clip(index, 0, len(keys) - 1)
            hit = unresolved & (keys[index] == truncated)
            result[hit] = asns[index[hit]]
            unresolved &= ~hit
        return result

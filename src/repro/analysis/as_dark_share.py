"""Per-AS dark-space characterisation.

Section 3.3: the paper uses CAIDA's pfx2as "to characterize the
portion of inferred dark address space of individual Autonomous
Systems".  This module produces that characterisation: per-AS counts
of inferred meta-telescope /24s, the share of each AS's announced
space they represent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bgp.rib import RoutingTable
from repro.datasets.pfx2as import PrefixToAsMap


@dataclass(frozen=True, slots=True)
class AsDarkShare:
    """One AS's inferred dark footprint."""

    asn: int
    dark_blocks: int
    announced_blocks: int

    @property
    def share(self) -> float:
        """Fraction of the AS's announced space inferred dark."""
        return self.dark_blocks / self.announced_blocks if self.announced_blocks else 0.0


def dark_share_by_as(
    dark_blocks: np.ndarray,
    routing: RoutingTable,
    pfx2as: PrefixToAsMap,
) -> list[AsDarkShare]:
    """Per-AS dark counts and shares, largest dark footprint first.

    ``routing`` supplies each AS's announced block count (the share's
    denominator); an AS it does not see announcing is skipped.
    """
    dark = np.unique(np.asarray(dark_blocks, dtype=np.int64))
    dark_asns = pfx2as.asns_of_blocks(dark)
    dark_counts: dict[int, int] = {}
    for asn in dark_asns[dark_asns >= 0]:
        dark_counts[int(asn)] = dark_counts.get(int(asn), 0) + 1

    announced_counts: dict[int, int] = {}
    for announcement in routing.announcements:
        announced_counts[announcement.origin_asn] = (
            announced_counts.get(announcement.origin_asn, 0)
            + announcement.prefix.num_blocks()
        )

    rows = []
    for asn, dark_count in dark_counts.items():
        announced = announced_counts.get(asn, 0)
        if not announced:
            continue
        rows.append(
            AsDarkShare(
                asn=asn,
                dark_blocks=dark_count,
                # More-specifics overlap their covering announcement;
                # the dark count can therefore not exceed the space.
                announced_blocks=max(announced, dark_count),
            )
        )
    rows.sort(key=lambda row: -row.dark_blocks)
    return rows

"""BGP RIB emulation: announcements, snapshots, and a Route-Views-style
collector.

The paper's pipeline step 5 ("Globally Routed") consumes daily unions of
the 12 two-hourly RIB dumps from a Route Views collector.  We reproduce
that interface: a :class:`RouteViewsCollector` emits 12
:class:`RibSnapshot` dumps per day with mild announcement churn
(flapping more-specifics), and :meth:`RouteViewsCollector.daily_table`
returns their union.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.net.family import IPV4, AddressFamily, family_of_prefix
from repro.net.ipv4 import Prefix
from repro.net.trie import interval_covered_mask

DUMPS_PER_DAY = 12


@dataclass(frozen=True, slots=True)
class Announcement:
    """A (prefix, origin AS) pair as seen in a RIB dump."""

    prefix: Prefix
    origin_asn: int
    #: Stable announcements appear in every dump; flapping ones only in some.
    stable: bool = True


class RoutingTable:
    """A set of announcements with fast block-coverage queries.

    The table's address family is inferred from the first announcement's
    prefix type (IPv4 when empty); mixing families in one table is not
    supported.
    """

    def __init__(
        self,
        announcements: Iterable[Announcement],
        family: AddressFamily | None = None,
    ) -> None:
        self._announcements = tuple(announcements)
        if family is None:
            family = (
                family_of_prefix(self._announcements[0].prefix)
                if self._announcements
                else IPV4
            )
        self.family = family
        # Sorted-interval table for routed_mask, built lazily on first
        # probe and pinned here: the table is immutable after __init__,
        # so coordinators that keep one RoutingTable across many
        # inference runs (online windows) never rebuild it, and the
        # collector's per-dump tables that nobody probes never build it.
        self._interval_cache: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def announcements(self) -> tuple[Announcement, ...]:
        """All announcements in this table."""
        return self._announcements

    def routed_mask(self, blocks: np.ndarray) -> np.ndarray:
        """Which ``blocks`` lie entirely inside an announced prefix."""
        if self._interval_cache is None:
            self._interval_cache = self._block_intervals()
        starts, ends = self._interval_cache
        return interval_covered_mask(starts, ends, blocks)

    def _block_intervals(self) -> tuple[np.ndarray, np.ndarray]:
        """The sorted ``(starts, ends)`` block spans of the announced
        prefixes no longer than a block, ends a cumulative max (so a
        nested prefix never shadows its cover during the probe)."""
        block_length = self.family.block_prefix_length
        spans = sorted({
            (prefix.first_block(), prefix.first_block() + prefix.num_blocks() - 1)
            for prefix in (a.prefix for a in self._announcements)
            if prefix.length <= block_length
        })
        starts = np.array([lo for lo, _ in spans], dtype=np.int64)
        ends = np.array([hi for _, hi in spans], dtype=np.int64)
        if len(ends):
            ends = np.maximum.accumulate(ends)
        return starts, ends


@dataclass(frozen=True, slots=True)
class RibSnapshot:
    """One RIB dump: a timestamp (hours since epoch) plus a table."""

    dump_hour: int
    table: RoutingTable


class RouteViewsCollector:
    """Emulates a Route Views collector over a fixed announcement set.

    Stable announcements appear in every dump.  Flapping announcements
    appear in a pseudo-random subset of each day's 12 dumps (seeded, so
    deterministic per collector), modelling short-lived more-specifics.
    The union over a day therefore includes every announcement, while a
    single dump may miss flapping prefixes — matching the paper's
    rationale for merging all 12 dumps.
    """

    def __init__(self, announcements: Sequence[Announcement], seed: int = 0) -> None:
        self._announcements = tuple(announcements)
        self._seed = seed

    def dump(self, day: int, dump_index: int) -> RibSnapshot:
        """The RIB snapshot for ``dump_index`` (0..11) on ``day``."""
        if not 0 <= dump_index < DUMPS_PER_DAY:
            raise ValueError(f"dump index out of range: {dump_index}")
        rng = np.random.default_rng(
            (self._seed, 0x51B, day, dump_index)
        )
        present = []
        for announcement in self._announcements:
            if announcement.stable or rng.random() < 0.5:
                present.append(announcement)
        return RibSnapshot(
            dump_hour=day * 24 + dump_index * 2, table=RoutingTable(present)
        )

    def daily_table(self, day: int) -> RoutingTable:
        """Union of all 12 dumps of ``day`` — the pipeline's input."""
        seen: dict[tuple[Prefix, int], Announcement] = {}
        for dump_index in range(DUMPS_PER_DAY):
            snapshot = self.dump(day, dump_index)
            for announcement in snapshot.table.announcements:
                seen[(announcement.prefix, announcement.origin_asn)] = announcement
        return RoutingTable(seen.values())

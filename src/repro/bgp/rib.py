"""BGP RIB emulation: announcements, snapshots, and a Route-Views-style
collector.

The paper's pipeline step 5 ("Globally Routed") consumes daily unions of
the 12 two-hourly RIB dumps from a Route Views collector.  We reproduce
that interface: a :class:`RouteViewsCollector` emits 12
:class:`RibSnapshot` dumps per day with mild announcement churn
(flapping more-specifics), and :meth:`RouteViewsCollector.daily_table`
returns their union, taken on one presence matrix of the day's dumps.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Sequence

import numpy as np

from repro.net.blocksets import block_spans, interval_covered_mask
from repro.net.ipv4 import Prefix

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

    Each announced prefix carries its address family, so one table type
    routes IPv4 /24s and IPv6 /48 sites alike (an empty table routes
    nothing in either); mixing families in one table is not supported.
    """

    def __init__(self, announcements: Iterable[Announcement]) -> None:
        self._announcements = tuple(announcements)
        # Block-span table for routed_mask, built lazily on first probe
        # and pinned here: the table is immutable after __init__, so
        # coordinators that keep one RoutingTable across many inference
        # runs (online windows) never rebuild it, and the collector's
        # per-dump tables that nobody probes never build it.
        self._spans: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def announcements(self) -> tuple[Announcement, ...]:
        """All announcements in this table."""
        return self._announcements

    def routed_mask(self, blocks: np.ndarray) -> np.ndarray:
        """Which ``blocks`` lie entirely inside an announced prefix (one
        no longer than a block)."""
        if self._spans is None:
            self._spans = block_spans(
                (a.prefix for a in self._announcements), whole_blocks_only=True
            )
        return interval_covered_mask(*self._spans, blocks)


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
    The union over a day therefore includes nearly every announcement,
    while a single dump may miss flapping prefixes — matching the
    paper's rationale for merging all 12 dumps.

    One presence rule serves :meth:`dump` and :meth:`daily_table`: each
    dump of a day draws one uniform per flapping announcement, in
    announcement order, from its own seeded stream, and holds the
    flapping announcements whose draw is below 0.5.
    """

    def __init__(self, announcements: Sequence[Announcement], seed: int = 0) -> None:
        self._announcements = tuple(announcements)
        self._seed = seed

    def _presence(self, day: int, dump_indices: Sequence[int]) -> np.ndarray:
        """Which announcements each of ``dump_indices`` holds on ``day``:
        one boolean row per dump, one column per announcement."""
        announcements = self._announcements
        stable = np.fromiter(
            (a.stable for a in announcements), bool, len(announcements)
        )
        present = np.ones((len(dump_indices), len(announcements)), dtype=bool)
        flapping = np.flatnonzero(~stable)
        if len(flapping):
            for row, dump_index in zip(present, dump_indices):
                rng = np.random.default_rng((self._seed, 0x51B, day, dump_index))
                row[flapping] = rng.random(len(flapping)) < 0.5
        return present

    def dump(self, day: int, dump_index: int) -> RibSnapshot:
        """The RIB snapshot for ``dump_index`` (0..11) on ``day``."""
        if not 0 <= dump_index < DUMPS_PER_DAY:
            raise ValueError(f"dump index out of range: {dump_index}")
        (present,) = self._presence(day, [dump_index])
        return RibSnapshot(
            dump_hour=day * 24 + dump_index * 2,
            table=RoutingTable(compress(self._announcements, present)),
        )

    def daily_table(self, day: int) -> RoutingTable:
        """Union of all 12 dumps of ``day`` — the pipeline's input.

        The union is taken on the presence matrix, as a dict keyed by
        ``(prefix, origin)`` would take it dump by dump: an announcement
        is in the day if some dump holds it, the table keeps the order
        of first appearance (dump first, then announcement index), and
        announcements sharing a key take the first one's place and the
        last one's value.
        """
        announcements = self._announcements
        present = self._presence(day, range(DUMPS_PER_DAY))
        # Each announcement's group: the index of the first one with its
        # key (its own index when the key is unique).
        first_of: dict[tuple[int, int, int, int], int] = {}
        group = np.fromiter(
            (
                first_of.setdefault(
                    (a.prefix.network, a.prefix.length, a.prefix.bits, a.origin_asn),
                    index,
                )
                for index, a in enumerate(announcements)
            ),
            np.intp,
            len(announcements),
        )
        return RoutingTable(
            announcements[index] for index in _union_order(present, group).tolist()
        )


def _union_order(present: np.ndarray, group: np.ndarray) -> np.ndarray:
    """The indices a dict union of the dumps in ``present`` (one row per
    dump) keeps, in its order, when announcements of one ``group``
    share a key: per group, the last present ``(dump, index)`` gives the
    value and the first gives the place."""
    dumps, count = present.shape
    members = np.flatnonzero(present.any(axis=0))
    if len(members) == 0:
        return members
    # (dump, index) as one rank, at each member's first and last dump.
    first = present[:, members].argmax(axis=0) * count + members
    last = (dumps - 1 - present[::-1, members].argmax(axis=0)) * count + members
    by_group = np.lexsort((last, group[members]))
    groups = group[members][by_group]
    heads = np.flatnonzero(np.concatenate(([True], groups[1:] != groups[:-1])))
    tails = np.append(heads[1:], len(groups)) - 1
    place = np.minimum.reduceat(first[by_group], heads)
    return members[by_group[tails]][np.argsort(place)]

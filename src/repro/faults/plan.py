"""Composable, seeded fault plans.

A :class:`FaultPlan` bundles injectors with a seed and applies them to
each day's views in a canonical order (sorted by injector name).
Determinism is the whole point: the RNG for every (injector, day,
vantage) triple is derived from the plan seed and the injector's
position in that canonical order, so the same plan — declared in any
construction order — produces byte-identical degraded feeds on every
run.  Faults become a reproducible experiment input, not noise.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.faults.injectors import (
    CorruptedFields,
    DuplicatedRecords,
    FaultEvent,
    FaultInjector,
    MisreportedSampling,
    SiteOutage,
    StaleRib,
    StaleRibCollector,
    TruncatedDay,
)
from repro.vantage.sampling import VantageDayView


@dataclass(frozen=True, slots=True)
class FaultedDay:
    """One day's views after the plan ran, plus what was injected."""

    day: int
    views: tuple[VantageDayView, ...]
    events: tuple[FaultEvent, ...]

    def outage(self) -> bool:
        """True when the whole day was lost."""
        return len(self.views) == 0


@dataclass
class FaultPlan:
    """An ordered, seeded set of injectors over a campaign."""

    seed: int = 0
    injectors: list[FaultInjector] = field(default_factory=list)

    def add(self, injector: FaultInjector) -> "FaultPlan":
        """Append an injector (returns self for chaining)."""
        self.injectors.append(injector)
        return self

    def _rng(self, index: int, day: int, vantage: str) -> np.random.Generator:
        # crc32 gives a stable, process-independent hash of the vantage
        # code (unlike hash(), which is salted per interpreter run).
        return np.random.default_rng(
            (self.seed, 0xFA017, index, day, zlib.crc32(vantage.encode()))
        )

    def ordered_injectors(self) -> list[FaultInjector]:
        """The injectors in application order: sorted by name.

        Composition is order-deterministic: the same *set* of injectors
        produces byte-identical degraded feeds regardless of the order
        they were added in, because both the application sequence and
        the per-injector RNG index come from this sorted order (the
        sort is stable, so same-name injectors keep insertion order).
        """
        return sorted(self.injectors, key=lambda injector: injector.name)

    def apply(self, day: int, views: list[VantageDayView]) -> FaultedDay:
        """Run every applicable injector over every view, in name order."""
        surviving: list[VantageDayView] = []
        events: list[FaultEvent] = []
        ordered = self.ordered_injectors()
        for view in views:
            current: VantageDayView | None = view
            for index, injector in enumerate(ordered):
                if current is None or not injector.applies(day, view.vantage):
                    continue
                current, detail = injector.inject(
                    current, self._rng(index, day, view.vantage)
                )
                events.append(
                    FaultEvent(
                        day=day,
                        vantage=view.vantage,
                        fault=injector.name,
                        detail=detail,
                    )
                )
            if current is not None:
                surviving.append(current)
        return FaultedDay(day=day, views=tuple(surviving), events=tuple(events))

    def wrap_collector(self, collector):
        """Collector proxy honouring the plan's :class:`StaleRib` faults.

        Returns the collector unchanged when the plan has none, so the
        call is safe to make unconditionally.
        """
        stale = [i for i in self.injectors if isinstance(i, StaleRib)]
        if not stale:
            return collector
        return StaleRibCollector(collector, stale)


#: CLI / benchmark names for the standard one-fault plans.
STANDARD_FAULTS = (
    "outage",
    "truncate",
    "duplicate",
    "corrupt",
    "missample",
    "stale-rib",
)


def standard_injector(
    name: str,
    days: frozenset[int] | None = None,
    vantages: frozenset[str] | None = None,
) -> FaultInjector:
    """A canonical injector for one of :data:`STANDARD_FAULTS`."""
    factories = {
        "outage": lambda: SiteOutage(days=days, vantages=vantages),
        "truncate": lambda: TruncatedDay(
            days=days, vantages=vantages, keep_fraction=0.35
        ),
        "duplicate": lambda: DuplicatedRecords(
            days=days, vantages=vantages, duplicate_fraction=0.4
        ),
        "corrupt": lambda: CorruptedFields(
            days=days, vantages=vantages, corrupt_fraction=0.2
        ),
        "missample": lambda: MisreportedSampling(
            days=days, vantages=vantages, factor_multiplier=0.05
        ),
        "stale-rib": lambda: StaleRib(days=days, vantages=vantages, lag_days=2),
    }
    try:
        return factories[name]()
    except KeyError:
        raise ValueError(
            f"unknown fault {name!r}; choose from {', '.join(STANDARD_FAULTS)}"
        ) from None

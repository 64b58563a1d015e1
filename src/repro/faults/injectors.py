"""Deterministic fault injectors over vantage-day views.

Each injector models one failure class a long-running meta-telescope
operation meets in practice (Section 9's "information as a service"
runs on infrastructure the operator does not control):

* :class:`SiteOutage` — an IXP stops exporting entirely for a day;
* :class:`TruncatedDay` — the feed dies partway through a day, so only
  a prefix of the day's records arrives;
* :class:`DuplicatedRecords` — a collector re-emits part of a day
  (retransmitted IPFIX batches);
* :class:`CorruptedFields` — rows arrive with impossible field values
  (zeroed addresses, sub-header byte counts, empty packet counts);
* :class:`MisreportedSampling` — the vantage advertises a wrong
  sampling rate, silently rescaling every estimated count;
* :class:`StaleRib` — the Route Views mirror lags, serving day ``d``
  inference a routing table from day ``d - lag``.

Injectors are pure: they never mutate the incoming view, and every
random choice comes from the :class:`~repro.faults.plan.FaultPlan`'s
seeded generator, so a plan replays identically run after run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bgp.rib import RoutingTable
from repro.traffic.flows import FlowTable
from repro.vantage.sampling import VantageDayView

#: Minimum plausible bytes per packet (a bare IP+TCP header); rows
#: below it are physically impossible and mark field corruption.
MIN_BYTES_PER_PACKET = 20


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """One injected fault, for the plan's audit trail."""

    day: int
    vantage: str
    fault: str
    detail: str


@dataclass(frozen=True)
class FaultInjector:
    """Base class: where a fault strikes, and what it does to a view.

    ``days``/``vantages`` of ``None`` mean "every day"/"every vantage".
    Subclasses override :meth:`inject`; returning ``None`` drops the
    view entirely (an outage).
    """

    days: frozenset[int] | None = None
    vantages: frozenset[str] | None = None

    @property
    def name(self) -> str:
        """Stable identifier used in events and CLI selection."""
        return type(self).__name__

    def applies(self, day: int, vantage: str) -> bool:
        """Whether this injector targets the given vantage-day."""
        if self.days is not None and day not in self.days:
            return False
        if self.vantages is not None and vantage not in self.vantages:
            return False
        return True


@dataclass(frozen=True)
class SiteOutage(FaultInjector):
    """The vantage exports nothing at all for the targeted days."""

    def inject(
        self, view: VantageDayView, rng: np.random.Generator
    ) -> tuple[VantageDayView | None, str]:
        return None, f"dropped {len(view.flows):,} flows"


@dataclass(frozen=True)
class TruncatedDay(FaultInjector):
    """Only the first ``keep_fraction`` of the day's records arrive.

    A prefix slice (not a random sample) is the right model: export
    pipelines fail at a point in time, and everything after it is lost.
    """

    keep_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.keep_fraction <= 1.0:
            raise ValueError(f"keep_fraction out of range: {self.keep_fraction}")

    def inject(
        self, view: VantageDayView, rng: np.random.Generator
    ) -> tuple[VantageDayView | None, str]:
        keep = int(len(view.flows) * self.keep_fraction)
        mask = np.zeros(len(view.flows), dtype=bool)
        mask[:keep] = True
        return (
            view.with_flows(view.flows.filter(mask)),
            f"kept first {keep:,}/{len(view.flows):,} flows",
        )


@dataclass(frozen=True)
class DuplicatedRecords(FaultInjector):
    """A fraction of the day's rows is delivered twice."""

    duplicate_fraction: float = 0.25

    def __post_init__(self) -> None:
        if not 0.0 <= self.duplicate_fraction <= 1.0:
            raise ValueError(
                f"duplicate_fraction out of range: {self.duplicate_fraction}"
            )

    def inject(
        self, view: VantageDayView, rng: np.random.Generator
    ) -> tuple[VantageDayView | None, str]:
        count = int(len(view.flows) * self.duplicate_fraction)
        if count == 0:
            return view, "no rows duplicated"
        picked = rng.choice(len(view.flows), size=count, replace=False)
        mask = np.zeros(len(view.flows), dtype=bool)
        mask[picked] = True
        doubled = FlowTable.concat([view.flows, view.flows.filter(mask)])
        return view.with_flows(doubled), f"re-emitted {count:,} rows"


@dataclass(frozen=True)
class CorruptedFields(FaultInjector):
    """Rows arrive with impossible values in one field each.

    A third of the corrupted rows get a zeroed destination address, a
    third a byte count below the physical per-packet minimum, and a
    third an empty packet count — the three corruption shapes a parser
    or sanity scorer can actually detect.
    """

    corrupt_fraction: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 <= self.corrupt_fraction <= 1.0:
            raise ValueError(
                f"corrupt_fraction out of range: {self.corrupt_fraction}"
            )

    def inject(
        self, view: VantageDayView, rng: np.random.Generator
    ) -> tuple[VantageDayView | None, str]:
        flows = view.flows
        count = int(len(flows) * self.corrupt_fraction)
        if count == 0:
            return view, "no rows corrupted"
        picked = rng.choice(len(flows), size=count, replace=False)
        dst_ip = flows.dst_ip.copy()
        bytes_ = flows.bytes.copy()
        packets = flows.packets.copy()
        thirds = np.array_split(picked, 3)
        dst_ip[thirds[0]] = 0
        bytes_[thirds[1]] = np.maximum(
            packets[thirds[1]] * (MIN_BYTES_PER_PACKET // 4), 1
        )
        packets[thirds[2]] = 0
        corrupted = FlowTable(
            src_ip=flows.src_ip,
            dst_ip=dst_ip,
            proto=flows.proto,
            dport=flows.dport,
            packets=packets,
            bytes=bytes_,
            sender_asn=flows.sender_asn,
            dst_asn=flows.dst_asn,
            spoofed=flows.spoofed,
        )
        return view.with_flows(corrupted), f"corrupted {count:,} rows"


@dataclass(frozen=True)
class MisreportedSampling(FaultInjector):
    """The vantage advertises a wrong sampling factor.

    ``factor_multiplier`` < 1 understates the factor (every estimated
    count shrinks); > 1 overstates it.  The flows themselves are
    untouched — exactly the silent failure mode of a misconfigured
    IPFIX exporter.
    """

    factor_multiplier: float = 0.1

    def __post_init__(self) -> None:
        if self.factor_multiplier <= 0.0:
            raise ValueError(
                f"factor_multiplier must be > 0: {self.factor_multiplier}"
            )

    def inject(
        self, view: VantageDayView, rng: np.random.Generator
    ) -> tuple[VantageDayView | None, str]:
        reported = view.sampling_factor * self.factor_multiplier
        return (
            view.with_flows(view.flows, sampling_factor=reported),
            f"sampling factor {view.sampling_factor:g} -> {reported:g}",
        )


@dataclass(frozen=True)
class StaleRib(FaultInjector):
    """The RIB mirror lags by ``lag_days``; wraps the collector side.

    Unlike the view injectors this one degrades the *routing* input:
    :meth:`repro.faults.plan.FaultPlan.wrap_collector` consults it when
    building the stale collector.  ``inject`` passes views through
    untouched so a StaleRib can still live in a mixed plan.
    """

    lag_days: int = 1

    def __post_init__(self) -> None:
        if self.lag_days < 0:
            raise ValueError(f"lag_days must be >= 0: {self.lag_days}")

    def inject(
        self, view: VantageDayView, rng: np.random.Generator
    ) -> tuple[VantageDayView | None, str]:
        return view, f"rib lagged by {self.lag_days} day(s)"


class StaleRibCollector:
    """A collector proxy serving yesterday's (or older) daily tables.

    Wraps any object with the :class:`~repro.bgp.rib.RouteViewsCollector`
    interface; for a day targeted by a :class:`StaleRib` injector the
    daily table is the one from ``lag_days`` earlier (clamped at day 0).
    """

    def __init__(self, collector, injectors: list[StaleRib]) -> None:
        self._collector = collector
        self._injectors = list(injectors)

    def _effective_day(self, day: int) -> int:
        effective = day
        for injector in self._injectors:
            if injector.days is None or day in injector.days:
                effective = min(effective, max(0, day - injector.lag_days))
        return effective

    def daily_table(self, day: int) -> RoutingTable:
        """The (possibly stale) union table for ``day``."""
        return self._collector.daily_table(self._effective_day(day))

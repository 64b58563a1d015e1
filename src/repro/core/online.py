"""Online (rolling-window) operation of a meta-telescope.

Section 9 of the paper argues that "meta-telescope information as a
service" needs *regular* re-inference — daily runs over a sliding
window, with stability tracking, so the prefix list adapts to routing
changes and space being put into use.  This module packages that
operational loop:

* feed each day's views with :meth:`OnlineMetaTelescope.update`;
* the instance folds each day into a mergeable
  :class:`~repro.core.accum.PrefixAccumulator` and keeps the last
  ``window_days`` of *accumulators* (not raw views), so window
  re-inference is a cheap merge of per-day partial aggregates instead
  of a re-aggregation of every flow in the window;
* it re-runs the inference over the merged window and tracks how many
  recent days each prefix was independently inferred dark;
* :meth:`current_prefixes` returns the serving list (window inference
  intersected with the stability requirement);
* churn between consecutive days is reported so the operator can see
  allocation changes.

Because the feeds live on infrastructure the operator does not control,
the loop must *operate through failure*: every day is feed-quality
scored (:mod:`repro.faults.quality`), and a configurable policy decides
what a missing or degraded day does to the serving list:

* ``"strict"`` (default) — the historical behaviour: an empty day
  raises, degraded days are folded in unquestioned;
* ``"skip"`` — missing/degraded days are skipped and flagged; the
  window only ever contains clean days and the serving list carries
  forward with staleness accounting;
* ``"carry"`` — missing days carry the serving list forward; degraded
  days are still folded in, but prefixes that flap under degraded
  input are quarantined until they survive :data:`QUARANTINE_DAYS`
  clean days.

:meth:`health_report` returns the structured operational record.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.core.accum import PrefixAccumulator
from repro.core.engine import RunContext
from repro.core.metatelescope import MetaTelescope, MetaTelescopeResult
from repro.core.snapshot import ClassificationSnapshot, build_snapshot
from repro.faults.quality import FeedQuality, score_feed
from repro.net.blocksets import (
    sorted_difference,
    sorted_in_at_least,
    sorted_intersection,
    sorted_union,
)
from repro.vantage.sampling import VantageDayView

#: Degraded-day policies accepted by :class:`OnlineMetaTelescope`.
POLICIES = ("strict", "skip", "carry")
#: Quality score below which a day counts as degraded.
MIN_QUALITY = 0.5
#: Clean days a flapping prefix sits out under the ``carry`` policy.
QUARANTINE_DAYS = 2

#: How many clean-day volume totals the quality baseline remembers.
_VOLUME_HISTORY = 30


def _empty_blocks() -> np.ndarray:
    return np.empty(0, dtype=np.int64)


@dataclass(frozen=True, slots=True)
class DayUpdate:
    """What changed when a day was folded in."""

    day: int
    serving_size: int
    added_blocks: np.ndarray
    removed_blocks: np.ndarray
    #: ``"inferred"`` (clean fold), ``"degraded"`` (folded under a
    #: degraded feed), ``"skipped"`` (day dropped by policy), or
    #: ``"carried"`` (no data; serving list carried forward).
    action: str = "inferred"
    #: Days since the serving list last came out of a clean inference.
    staleness: int = 0
    quality: FeedQuality | None = None
    quarantined_blocks: np.ndarray = field(default_factory=_empty_blocks)


@dataclass(frozen=True, slots=True)
class DayRecord:
    """One line of the operational log."""

    day: int
    action: str
    score: float
    serving_size: int
    staleness: int
    num_quarantined: int
    reasons: tuple[str, ...]


@dataclass(frozen=True)
class HealthReport:
    """Structured health of a continuously operated meta-telescope."""

    records: tuple[DayRecord, ...]
    current_staleness: int
    quarantined_blocks: np.ndarray
    serving_size: int
    #: Robustness-scenario attribution: which adversarial scenario (if
    #: any) this operation was running under (:mod:`repro.robustness`).
    scenario: str | None = None

    def days_processed(self) -> int:
        """Total days fed to the instance."""
        return len(self.records)

    def days_by_action(self) -> dict[str, int]:
        """How many days ended in each action."""
        counts: dict[str, int] = {}
        for record in self.records:
            counts[record.action] = counts.get(record.action, 0) + 1
        return counts

    def ok(self) -> bool:
        """Fresh serving list and nothing in quarantine."""
        return self.current_staleness == 0 and len(self.quarantined_blocks) == 0

    def summary(self) -> str:
        """One-paragraph operator summary."""
        actions = ", ".join(
            f"{count} {action}" for action, count in sorted(self.days_by_action().items())
        )
        prefix = f"[{self.scenario}] " if self.scenario else ""
        return (
            f"{prefix}{self.days_processed()} day(s) processed ({actions}); "
            f"serving {self.serving_size:,} prefixes, "
            f"staleness {self.current_staleness} day(s), "
            f"{len(self.quarantined_blocks):,} quarantined"
        )


@dataclass
class OnlineMetaTelescope:
    """A continuously operated meta-telescope."""

    telescope: MetaTelescope
    window_days: int = 7
    #: A prefix must be inferred dark on at least this many of the
    #: window's *individual* days to be served (paper §7.1).
    min_stable_days: int = 2
    use_spoofing_tolerance: bool = True
    #: Missing/degraded-day policy; see the module docstring.
    policy: str = "strict"
    #: Rows per fold batch when folding a day's views into its
    #: accumulator (None: the day in one batch; ``"auto"``: the day in
    #: one batch up to 2^18 rows, 2^18-row batches above).
    #: Classification is bit-identical either way; the chunk size only
    #: bounds memory.
    chunk_size: int | str | None = None
    #: Fold kernel backend (``"numpy"``, ``"native"``, ``"auto"`` or
    #: None for the engine default).  Either backend classifies
    #: bit-identically; the knob only trades speed.
    kernel: str | None = None
    #: Extra trace sinks attached to every day's
    #: :class:`~repro.core.engine.RunContext` (e.g. a
    #: :class:`~repro.core.engine.JsonlSink` for a rolling trace file).
    sinks: tuple = ()
    #: Robustness-scenario attribution carried into every
    #: :class:`HealthReport` (None outside scenario evaluation).
    scenario: str | None = None
    #: Rolling window of ``(day, PrefixAccumulator)`` partial aggregates.
    _window: deque = field(default_factory=deque, repr=False)
    _daily_dark: deque = field(default_factory=deque, repr=False)
    _serving: np.ndarray = field(default_factory=_empty_blocks, repr=False)
    _last_day: int | None = field(default=None, repr=False)
    _staleness: int = field(default=0, repr=False)
    _quarantine: dict[int, int] = field(default_factory=dict, repr=False)
    _records: list[DayRecord] = field(default_factory=list, repr=False)
    _volume_history: list[float] = field(default_factory=list, repr=False)
    _typical_factors: dict[str, float] = field(default_factory=dict, repr=False)
    _views_seen_max: int = field(default=0, repr=False)
    _last_context: RunContext | None = field(
        default=None, repr=False, compare=False
    )
    #: Latest window inference (the classification behind the serving
    #: list); retained so :meth:`snapshot` can publish full verdicts.
    _last_window_result: MetaTelescopeResult | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.window_days < 1:
            raise ValueError("window_days must be >= 1")
        if not 1 <= self.min_stable_days <= self.window_days:
            raise ValueError("min_stable_days must be in [1, window_days]")
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown policy {self.policy!r}; choose from {', '.join(POLICIES)}"
            )

    # -- the daily loop ------------------------------------------------

    def update(self, day: int, views: list[VantageDayView]) -> DayUpdate:
        """Fold one day of views in and refresh the serving list."""
        if self._last_day is not None and day <= self._last_day:
            raise ValueError(
                f"day {day} is not after the last fed day {self._last_day}; "
                "days must arrive strictly increasing (no duplicates, no replays)"
            )
        quality = self._score(day, views)
        degraded = quality.degraded(MIN_QUALITY)

        if self.policy == "strict":
            if not views:
                raise ValueError("need views for the day")
            update = self._fold(day, views, quality, action="inferred")
        elif not views:
            action = "carried" if self.policy == "carry" else "skipped"
            update = self._hold(day, quality, action=action)
        elif degraded and self.policy == "skip":
            update = self._hold(day, quality, action="skipped")
        elif degraded and self.policy == "carry":
            update = self._fold(day, views, quality, action="degraded")
        else:
            update = self._fold(day, views, quality, action="inferred")

        self._last_day = day
        if views and not degraded:
            self._learn(views, quality)
        self._records.append(
            DayRecord(
                day=day,
                action=update.action,
                score=quality.score,
                serving_size=update.serving_size,
                staleness=update.staleness,
                num_quarantined=len(self._quarantine),
                reasons=quality.reasons,
            )
        )
        return update

    # -- internals -----------------------------------------------------

    def _score(self, day: int, views: list[VantageDayView]) -> FeedQuality:
        # Feeds expected per day: the most seen on a clean day so far.
        return score_feed(
            day,
            views,
            history_packets=self._volume_history,
            expected_views=self._views_seen_max or None,
            typical_factors=self._typical_factors,
        )

    def _learn(self, views: list[VantageDayView], quality: FeedQuality) -> None:
        self._volume_history.append(quality.estimated_packets)
        del self._volume_history[:-_VOLUME_HISTORY]
        for view in views:
            self._typical_factors[view.vantage] = view.sampling_factor
        self._views_seen_max = max(self._views_seen_max, len(views))

    def _fold(
        self,
        day: int,
        views: list[VantageDayView],
        quality: FeedQuality,
        action: str,
    ) -> DayUpdate:
        previous_dark = self._daily_dark[-1] if self._daily_dark else None
        # One context per day: the fold, the per-day inference and the
        # window inference all land on the same event stream, separated
        # by scope labels.
        context = RunContext(sinks=self.sinks, scope="fold")
        self._last_context = context
        day_accumulator = self.telescope.accumulate(
            views, chunk_size=self.chunk_size, kernel=self.kernel,
            context=context,
        )
        self._window.append((day, day_accumulator))
        while len(self._window) > self.window_days:
            self._window.popleft()
            self._daily_dark.popleft()
        self.telescope.forget_routing_before(self._window[0][0])

        # A window holding only the new day is that day, inferred once.
        # A longer window is a merge of per-day partial aggregates: no
        # view in the window is ever re-aggregated.
        window_accumulator = day_accumulator
        day_dark = None
        if len(self._window) > 1:
            with context.scoped("day"):
                day_dark = self.telescope.infer_accumulated(
                    day_accumulator,
                    use_spoofing_tolerance=self.use_spoofing_tolerance,
                    refine=False,
                    context=context,
                ).pipeline.dark_blocks
            window_accumulator = PrefixAccumulator.merged(
                [accumulator for _, accumulator in self._window]
            )
        with context.scoped("window"):
            window_result = self.telescope.infer_accumulated(
                window_accumulator,
                use_spoofing_tolerance=self.use_spoofing_tolerance,
                context=context,
            )
        if day_dark is None:
            # Refinement leaves the pipeline's dark set as it is.
            day_dark = window_result.pipeline.dark_blocks
        self._daily_dark.append(day_dark)
        self._last_window_result = window_result

        if action == "degraded":
            self._staleness += 1
            if previous_dark is not None:
                flapped = sorted_difference(
                    sorted_union(day_dark, previous_dark),
                    sorted_intersection(day_dark, previous_dark),
                )
                for block in flapped.tolist():
                    self._quarantine[block] = QUARANTINE_DAYS
        else:
            self._staleness = 0
            self._tick_quarantine()

        context.emit(
            "quarantine",
            f"d{day}",
            quarantined=len(self._quarantine),
            meta={"action": action},
        )
        stable = sorted_in_at_least(
            self._daily_dark, min(self.min_stable_days, len(self._daily_dark))
        )
        quarantined = self.quarantined_blocks()
        serving = sorted_difference(
            sorted_intersection(window_result.prefixes, stable), quarantined
        )
        added = sorted_difference(serving, self._serving)
        removed = sorted_difference(self._serving, serving)
        self._serving = serving
        return DayUpdate(
            day=day,
            serving_size=len(serving),
            added_blocks=added,
            removed_blocks=removed,
            action=action,
            staleness=self._staleness,
            quality=quality,
            quarantined_blocks=quarantined,
        )

    def _hold(self, day: int, quality: FeedQuality, action: str) -> DayUpdate:
        """Keep serving the current list; account for its staleness."""
        self._staleness += 1
        return DayUpdate(
            day=day,
            serving_size=len(self._serving),
            added_blocks=_empty_blocks(),
            removed_blocks=_empty_blocks(),
            action=action,
            staleness=self._staleness,
            quality=quality,
            quarantined_blocks=self.quarantined_blocks(),
        )

    def _tick_quarantine(self) -> None:
        for block in list(self._quarantine):
            self._quarantine[block] -= 1
            if self._quarantine[block] <= 0:
                del self._quarantine[block]

    # -- operator views ------------------------------------------------

    def current_prefixes(self) -> np.ndarray:
        """The serving meta-telescope prefix list."""
        return self._serving

    def days_in_window(self) -> list[int]:
        """Days currently inside the rolling window."""
        return [day for day, _ in self._window]

    def quarantined_blocks(self) -> np.ndarray:
        """Blocks currently excluded for flapping under degraded input."""
        return np.array(sorted(self._quarantine), dtype=np.int64)

    def last_run_context(self) -> RunContext | None:
        """RunContext of the latest folded day (full event stream).

        Scopes: ``fold`` (the aggregation), ``window`` (the window
        inference) and, only when the window holds more than the new
        day, ``day`` (the day's own unrefined inference).
        """
        return self._last_context

    def snapshot(self, provenance=None) -> ClassificationSnapshot:
        """Freeze the current serving state into an immutable snapshot.

        The snapshot's dark set is exactly :meth:`current_prefixes`
        (what the operator actually serves); window-inferred dark
        blocks that are withheld — flagged by liveness refinement (as
        in a batch snapshot), not yet stable, or quarantined — appear
        as ``candidate``, and the latest window inference's
        unclean/gray verdicts ride along.  Since-day and confidence
        come from the per-day dark history inside the rolling window,
        and provenance carries the health summary, so a consumer can
        judge the feed the snapshot was built under.
        """
        day = self._last_day if self._last_day is not None else 0
        history = list(zip(self.days_in_window(), self._daily_dark))
        result = self._last_window_result
        health = self.health_report()
        record = {
            "engine": "online",
            "policy": self.policy,
            "window_days": self.window_days,
            "min_stable_days": self.min_stable_days,
            "health": health.summary(),
            "health_ok": health.ok(),
            "staleness": self._staleness,
        }
        if self.scenario:
            record["scenario"] = self.scenario
        record.update(provenance or {})
        return build_snapshot(
            day=day,
            dark=self._serving,
            unclean=(
                result.pipeline.unclean_blocks if result is not None else None
            ),
            gray=(
                result.pipeline.gray_blocks if result is not None else None
            ),
            candidate=(
                sorted_difference(result.pipeline.dark_blocks, self._serving)
                if result is not None
                else None
            ),
            history=history,
            provenance=record,
            family=self.telescope.special.family.name,
        )

    def health_report(self) -> HealthReport:
        """The structured operational record so far."""
        return HealthReport(
            records=tuple(self._records),
            current_staleness=self._staleness,
            quarantined_blocks=self.quarantined_blocks(),
            serving_size=len(self._serving),
            scenario=self.scenario,
        )

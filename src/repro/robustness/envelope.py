"""Expected-degradation envelopes and the scenario regression gate.

A robustness scenario is allowed to hurt the classifier — that is the
point of an adversary — but only *predictably*.  Each scenario ships an
:class:`Envelope`: per-metric bounds on how far the scenario run may
move FPR, FNR and telescope coverage from a clean baseline run of the
same world scale, plus (where the scenario targets specific blocks) an
absolute bound on the share of targeted blocks left in the served set.

The evaluator runs every scenario through the execution engine twice —
the batch **parallel** path (``workers >= 2``) and the **online**
rolling-window path — scores both against the scenario's ground truth,
and checks every metric against the envelope.  Bounds are two-sided on
purpose: a *lower* bound on the padded-evasive scenario's expected
degradation is what turns the catalog into a regression gate — if a
code change weakens the packet-size filter, the adversary suddenly
"fails" to degrade the classifier and the gate trips.

Fault-injection composition (:mod:`repro.faults`) can be folded on top;
the same :class:`~repro.faults.plan.FaultPlan` is applied to baseline
and scenario feeds alike, so the envelope deltas stay differential and
remain valid under degraded transport.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.core.engine import RunContext
from repro.core.evaluation import confusion_against_truth, telescope_coverage
from repro.core.metatelescope import MetaTelescope
from repro.core.online import OnlineMetaTelescope
from repro.faults.plan import FaultPlan, standard_injector
from repro.world.builder import World, build_world
from repro.world.observe import Observatory

if TYPE_CHECKING:
    from repro.robustness.catalog import Scenario, ScenarioWorld

#: The two engine paths every scenario is scored on.
PATHS = ("parallel", "online")

#: The opt-in third path: the online state published as an immutable
#: snapshot and read back through the query service
#: (:mod:`repro.service`), so the gate also covers the product surface.
SERVICE_PATH = "service"


@dataclass(frozen=True, slots=True)
class Bounds:
    """Closed interval a metric must stay inside (None = unbounded)."""

    lo: float | None = None
    hi: float | None = None

    def contains(self, value: float) -> bool:
        """Whether ``value`` respects both bounds."""
        if self.lo is not None and value < self.lo:
            return False
        if self.hi is not None and value > self.hi:
            return False
        return True

    def describe(self) -> str:
        """Human form, e.g. ``[0.05, 0.40]``."""
        lo = "-inf" if self.lo is None else f"{self.lo:+.3f}"
        hi = "+inf" if self.hi is None else f"{self.hi:+.3f}"
        return f"[{lo}, {hi}]"


@dataclass(frozen=True, slots=True)
class Envelope:
    """Per-metric expected-degradation bounds for one scenario.

    Delta metrics (``fpr_delta``, ``fnr_delta``, ``coverage_delta``)
    compare the scenario run against the clean baseline run of the same
    engine path; ``target_miss_rate`` is absolute — the share of the
    scenario's targeted blocks *not* in the final served set.
    """

    fpr_delta: Bounds = field(default_factory=Bounds)
    fnr_delta: Bounds = field(default_factory=Bounds)
    coverage_delta: Bounds = field(default_factory=Bounds)
    target_miss_rate: Bounds | None = None

    def metrics(self) -> dict[str, Bounds]:
        """The named bounds this envelope enforces."""
        named = {
            "fpr_delta": self.fpr_delta,
            "fnr_delta": self.fnr_delta,
            "coverage_delta": self.coverage_delta,
        }
        if self.target_miss_rate is not None:
            named["target_miss_rate"] = self.target_miss_rate
        return named


@dataclass(frozen=True, slots=True)
class PathScore:
    """Classifier quality of one engine path's run against ground truth."""

    path: str
    serving: int
    fpr: float
    fnr: float
    coverage: float
    target_miss_rate: float | None = None

    def to_json(self) -> dict:
        """JSON-ready form."""
        return {
            "path": self.path,
            "serving": self.serving,
            "fpr": round(self.fpr, 6),
            "fnr": round(self.fnr, 6),
            "coverage": round(self.coverage, 6),
            "target_miss_rate": (
                None
                if self.target_miss_rate is None
                else round(self.target_miss_rate, 6)
            ),
        }


@dataclass(frozen=True, slots=True)
class MetricCheck:
    """One metric of one path checked against its envelope bounds."""

    path: str
    metric: str
    value: float
    bounds: Bounds
    ok: bool

    def describe(self) -> str:
        """One line for the verdict table."""
        state = "ok" if self.ok else "VIOLATION"
        return (
            f"{self.path}/{self.metric} = {self.value:+.3f} "
            f"in {self.bounds.describe()} -> {state}"
        )


@dataclass(frozen=True)
class ScenarioVerdict:
    """The envelope verdict for one scenario across both engine paths."""

    scenario: str
    summary: str
    baseline: tuple[PathScore, ...]
    observed: tuple[PathScore, ...]
    checks: tuple[MetricCheck, ...]
    online_health: str
    detail: Mapping[str, object] = field(default_factory=dict)

    def ok(self) -> bool:
        """True when every metric stayed inside the envelope."""
        return all(check.ok for check in self.checks)

    def violations(self) -> tuple[MetricCheck, ...]:
        """The checks that left the envelope."""
        return tuple(check for check in self.checks if not check.ok)

    def to_json(self) -> dict:
        """JSON-ready form (consumed by CI and the trace sink)."""
        return {
            "scenario": self.scenario,
            "ok": self.ok(),
            "baseline": [score.to_json() for score in self.baseline],
            "observed": [score.to_json() for score in self.observed],
            "checks": [
                {
                    "path": check.path,
                    "metric": check.metric,
                    "value": round(check.value, 6),
                    "lo": check.bounds.lo,
                    "hi": check.bounds.hi,
                    "ok": check.ok,
                }
                for check in self.checks
            ],
            "online_health": self.online_health,
            "detail": dict(self.detail),
        }


@dataclass(frozen=True)
class CatalogVerdict:
    """The whole catalog's regression-gate outcome."""

    verdicts: tuple[ScenarioVerdict, ...]

    def ok(self) -> bool:
        """True when no scenario left its envelope."""
        return all(verdict.ok() for verdict in self.verdicts)

    def to_json(self) -> dict:
        """JSON-ready form."""
        return {
            "ok": self.ok(),
            "scenarios": [verdict.to_json() for verdict in self.verdicts],
        }


@dataclass(frozen=True, slots=True)
class EvaluationSettings:
    """How the evaluator drives the engine for every run."""

    days: int = 3
    #: Threads folding the batch path's days; the gate requires the
    #: parallel path, so anything below 2 is raised to 2.  The online
    #: path folds one day per update and takes no pool.
    workers: int = 2
    chunk_size: int | str | None = None
    #: Fold kernel backend (None: engine default; both backends
    #: classify bit-identically, so the gate scores are unaffected).
    kernel: str | None = None
    #: Online degraded-day policy (the operational default).
    policy: str = "carry"
    #: Fold a canonical transport-fault plan on top of every feed
    #: (baseline and scenario alike, so deltas stay differential).
    compose_faults: bool = False
    fault_seed: int = 0
    #: Also score the **service** path: publish the online engine's
    #: snapshot through a :class:`~repro.service.MetaTelescopeService`
    #: and answer from the query surface.  The service must agree with
    #: the engine bit-for-bit — any divergence is an evaluation error,
    #: not a scored degradation.
    service_path: bool = False

    def effective_workers(self) -> int:
        """The batch path's pool size (parallel path mandatory)."""
        return max(2, self.workers)


def composition_fault_plan(settings: EvaluationSettings) -> FaultPlan:
    """The canonical transport-fault stack composed onto scenario feeds.

    Mid-campaign duplicated exports everywhere plus a truncated day at
    one small vantage: enough to exercise degraded-day policies and the
    order-deterministic injector composition, mild enough that the
    differential envelopes keep their meaning.
    """
    mid = settings.days // 2
    plan = FaultPlan(seed=settings.fault_seed)
    # Added in non-alphabetical order on purpose: composition is
    # order-deterministic (sorted by injector name), so this plan is
    # bit-identical to the same stack declared the other way round.
    plan.add(standard_injector("truncate", days=frozenset({mid}),
                               vantages=frozenset({"SE6"})))
    plan.add(standard_injector("duplicate", days=frozenset({mid})))
    return plan


def _daily_views(world: World, settings: EvaluationSettings):
    """Per-day all-IXP views, optionally run through the fault plan."""
    observatory = Observatory(world)
    plan = (
        composition_fault_plan(settings) if settings.compose_faults else None
    )
    per_day = []
    for day in range(settings.days):
        views = list(observatory.day(day).ixp_views.values())
        if plan is not None:
            views = list(plan.apply(day, views).views)
        per_day.append(views)
    return per_day


def _score(
    prefixes: np.ndarray,
    world: World,
    path: str,
    active_overrides: np.ndarray | None,
    target_blocks: np.ndarray | None,
) -> PathScore:
    """Score one path's served prefixes against scenario ground truth."""
    confusion = confusion_against_truth(
        prefixes, world.index, day_active_overrides=active_overrides
    )
    # Blocks the scenario re-activated leave the dark denominator: the
    # classifier is *right* to stop serving them.
    total_dark = confusion.total_true_dark
    if active_overrides is not None and len(active_overrides):
        total_dark -= len(
            np.intersect1d(
                np.asarray(active_overrides, dtype=np.int64),
                world.index.truly_dark_blocks(),
            )
        )
    fnr = (
        1.0 - confusion.true_positives / total_dark if total_dark > 0 else 0.0
    )
    coverages = [
        telescope_coverage(prefixes, sensor).coverage()
        for sensor in world.telescopes.values()
    ]
    miss = None
    if target_blocks is not None and len(target_blocks):
        hit = np.intersect1d(np.asarray(target_blocks, dtype=np.int64), prefixes)
        miss = 1.0 - len(hit) / len(target_blocks)
    return PathScore(
        path=path,
        serving=len(np.unique(np.asarray(prefixes, dtype=np.int64))),
        fpr=confusion.false_positive_rate_of_inferred(),
        fnr=fnr,
        coverage=float(np.mean(coverages)) if coverages else 0.0,
        target_miss_rate=miss,
    )


def _run_paths(
    world: World,
    settings: EvaluationSettings,
    context: RunContext | None,
    scenario: str | None,
    active_overrides: np.ndarray | None,
    target_blocks: np.ndarray | None,
) -> tuple[tuple[PathScore, ...], str]:
    """Run both engine paths over a world; score each against truth."""
    per_day = _daily_views(world, settings)
    workers = settings.effective_workers()
    sinks = context.sinks if context is not None else ()
    fault_plan = (
        composition_fault_plan(settings) if settings.compose_faults else None
    )

    # Parallel (batch) path: every view of the campaign in one fold.
    batch_telescope = MetaTelescope.for_world(world)
    if fault_plan is not None:
        batch_telescope.replace_collector(
            fault_plan.wrap_collector(batch_telescope.collector)
        )
    flat = [view for views in per_day for view in views]
    batch_result = batch_telescope.infer(
        flat,
        use_spoofing_tolerance=True,
        chunk_size=settings.chunk_size,
        workers=workers,
        kernel=settings.kernel,
    )
    scores = [
        _score(
            batch_result.prefixes, world, "parallel",
            active_overrides, target_blocks,
        )
    ]

    # Online (rolling-window) path: one day at a time, carry policy.
    online_telescope = MetaTelescope.for_world(world)
    if fault_plan is not None:
        online_telescope.replace_collector(
            fault_plan.wrap_collector(online_telescope.collector)
        )
    online = OnlineMetaTelescope(
        telescope=online_telescope,
        window_days=settings.days,
        min_stable_days=min(2, settings.days),
        use_spoofing_tolerance=True,
        policy=settings.policy,
        chunk_size=settings.chunk_size,
        kernel=settings.kernel,
        sinks=sinks,
        scenario=scenario,
    )
    for day, views in enumerate(per_day):
        online.update(day, views)
    health = online.health_report()
    scores.append(
        _score(
            online.current_prefixes(), world, "online",
            active_overrides, target_blocks,
        )
    )

    if settings.service_path:
        served = _service_served_blocks(online, context)
        scores.append(
            _score(
                served, world, SERVICE_PATH, active_overrides, target_blocks
            )
        )
    return tuple(scores), health.summary()


def _service_served_blocks(
    online: OnlineMetaTelescope, context: RunContext | None
) -> np.ndarray:
    """Publish the online state and read the served set back through the
    query service, verifying point-query parity along the way.

    The service path must be a *transport*, never a classifier: every
    sampled point query and the full dark set have to match the engine
    bit-for-bit, or the evaluation itself is broken and raises.
    """
    from repro.service import MetaTelescopeService

    service = MetaTelescopeService(
        health_provider=online.health_report, context=context
    )
    service.publish(online.snapshot())
    snapshot = service.handle.current()
    served = snapshot.dark_blocks
    engine_served = online.current_prefixes()
    if not np.array_equal(served, np.asarray(engine_served, dtype=np.int64)):
        raise ValueError(
            "service path diverged from the online engine: "
            f"{len(served)} served via snapshot vs {len(engine_served)}"
        )
    step = max(1, len(served) // 16)
    for block in served[::step]:
        answer = service.point(str(int(block)))
        if not answer["dark"]:
            raise ValueError(
                f"service point query disagrees with the engine for "
                f"block {int(block)}: {answer}"
            )
    return served


def evaluate_scenario(
    scenario: "Scenario",
    baseline: tuple[PathScore, ...],
    settings: EvaluationSettings,
    context: RunContext | None = None,
) -> ScenarioVerdict:
    """Run one scenario through both paths and gate it on its envelope."""
    started = time.perf_counter()
    built: "ScenarioWorld" = scenario.build(settings)
    observed, health = _run_paths(
        built.world,
        settings,
        context,
        scenario.name,
        built.active_overrides,
        built.target_blocks,
    )
    baseline_by_path = {score.path: score for score in baseline}
    checks: list[MetricCheck] = []
    for score in observed:
        base = baseline_by_path[score.path]
        deltas = {
            "fpr_delta": score.fpr - base.fpr,
            "fnr_delta": score.fnr - base.fnr,
            "coverage_delta": score.coverage - base.coverage,
        }
        if score.target_miss_rate is not None:
            deltas["target_miss_rate"] = score.target_miss_rate
        for metric, bounds in scenario.envelope.metrics().items():
            if metric not in deltas:
                continue
            value = deltas[metric]
            checks.append(
                MetricCheck(
                    path=score.path,
                    metric=metric,
                    value=value,
                    bounds=bounds,
                    ok=bounds.contains(value),
                )
            )
    verdict = ScenarioVerdict(
        scenario=scenario.name,
        summary=scenario.summary,
        baseline=baseline,
        observed=observed,
        checks=checks and tuple(checks) or (),
        online_health=health,
        detail=built.detail,
    )
    if context is not None:
        context.emit(
            "scenario",
            scenario.name,
            time.perf_counter() - started,
            rows_in=sum(
                1 for check in verdict.checks
            ),
            rows_out=len(verdict.violations()),
            meta={
                "ok": verdict.ok(),
                "violations": [
                    check.describe() for check in verdict.violations()
                ],
                "observed": [score.to_json() for score in verdict.observed],
            },
        )
    return verdict


def evaluate_catalog(
    scenarios: "list[Scenario]",
    config,
    settings: EvaluationSettings | None = None,
    context: RunContext | None = None,
) -> CatalogVerdict:
    """Gate every scenario of a catalog against one shared baseline.

    ``config`` is the :class:`~repro.world.config.WorldConfig` of the
    scale under test; the clean baseline world is built fresh from it
    (never from the shared cached worlds — scenarios mutate theirs).
    """
    if settings is None:
        settings = EvaluationSettings()
    started = time.perf_counter()
    baseline_world = build_world(config)
    baseline, _ = _run_paths(
        baseline_world, settings, context, None, None, None
    )
    if context is not None:
        context.emit(
            "scenario",
            "baseline",
            time.perf_counter() - started,
            meta={"observed": [score.to_json() for score in baseline]},
        )
    verdicts = [
        evaluate_scenario(scenario, baseline, settings, context=context)
        for scenario in scenarios
    ]
    return CatalogVerdict(verdicts=tuple(verdicts))

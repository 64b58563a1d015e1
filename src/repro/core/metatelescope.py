"""The public meta-telescope facade.

A :class:`MetaTelescope` bundles everything an operator needs — the
Route Views feed, the special-purpose registry, liveness datasets, the
unrouted baseline, and thresholds — and turns vantage-day views into
the final set of meta-telescope prefixes plus the traffic captured
toward them (the paper's two data products, Section 5).

Since the engine refactor the facade is thin: every fold is planned by
an :class:`~repro.core.engine.ExecutionPlanner` and run by
:func:`~repro.core.engine.execute_plan` through a
:class:`~repro.core.engine.RunContext` — serial, chunked and parallel
execution are one code path, and every fold and stage timing is an
event on that context.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro.bgp.rib import RouteViewsCollector, RoutingTable
from repro.core.accum import PrefixAccumulator
from repro.core.engine import (
    ExecutionPlan,
    ExecutionPlanner,
    RunContext,
    execute_plan,
)
from repro.core.pipeline import (
    PipelineConfig,
    PipelineResult,
    run_pipeline_accumulated,
)
from repro.core.refine import RefinementResult, refine_with_liveness
from repro.core.snapshot import ClassificationSnapshot, build_snapshot
from repro.core.spoofing_tolerance import tolerances_from_accumulator
from repro.datasets.liveness import LivenessDataset, union_liveness
from repro.net.blocksets import as_sorted_unique
from repro.net.special import SPECIAL_PURPOSE_REGISTRY, SpecialPurposeRegistry
from repro.traffic.flows import FlowTable
from repro.vantage.sampling import VantageDayView


@dataclass(frozen=True)
class MetaTelescopeResult:
    """Full outcome of one inference run."""

    pipeline: PipelineResult
    refinement: RefinementResult

    @property
    def prefixes(self) -> np.ndarray:
        """The final meta-telescope prefixes (/24 block ids)."""
        return self.refinement.final_blocks

    def num_prefixes(self) -> int:
        """Number of final meta-telescope /24 prefixes."""
        return len(self.refinement.final_blocks)

    def to_snapshot(self, day: int, provenance=None) -> ClassificationSnapshot:
        """Freeze this result into an immutable, servable snapshot.

        The served dark set is the *refined* prefix list; blocks the
        pipeline inferred dark but liveness refinement removed are kept
        as ``candidate`` so a snapshot consumer can tell "served" from
        "provisionally dark".
        """
        return build_snapshot(
            day=day,
            dark=self.refinement.final_blocks,
            unclean=self.pipeline.unclean_blocks,
            gray=self.pipeline.gray_blocks,
            candidate=self.refinement.removed_blocks,
            provenance=provenance,
            family=self.pipeline.family,
        )


@dataclass
class MetaTelescope:
    """An operator's configured meta-telescope instance."""

    collector: RouteViewsCollector
    liveness: list[LivenessDataset] = field(default_factory=list)
    special: SpecialPurposeRegistry = field(
        default_factory=lambda: SPECIAL_PURPOSE_REGISTRY
    )
    #: Unrouted baseline /24s for the spoofing tolerance (None disables).
    unrouted_baseline: np.ndarray | None = None
    config: PipelineConfig = field(default_factory=PipelineConfig)
    _routing_cache: dict[tuple[int, ...], RoutingTable] = field(
        default_factory=dict, repr=False
    )
    #: ``(datasets, their union)``: the liveness union refinement probes,
    #: merged once and rebuilt only when ``liveness`` holds other datasets.
    _liveness_cache: tuple[tuple, list[LivenessDataset]] | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.unrouted_baseline is not None:
            # Sorted-unique once, so no inference's tolerance re-derives it.
            self.unrouted_baseline = as_sorted_unique(self.unrouted_baseline)

    def replace_collector(self, collector) -> None:
        """Swap the RIB feed (e.g. for a fault-plan's stale-RIB proxy).

        The per-day routing cache is dropped: entries built from the old
        feed would otherwise silently serve the new one.
        """
        self.collector = collector
        self._routing_cache.clear()

    def routing_for_days(self, days: list[int]) -> RoutingTable:
        """Union routing table over the involved days' RIB dumps."""
        key = tuple(sorted(set(days)))
        cached = self._routing_cache.get(key)
        if cached is not None:
            return cached
        seen = {}
        for day in key:
            for announcement in self.collector.daily_table(day).announcements:
                seen[(announcement.prefix, announcement.origin_asn)] = announcement
        table = RoutingTable(seen.values())
        self._routing_cache[key] = table
        return table

    def liveness_union(self) -> list[LivenessDataset]:
        """``liveness`` merged into at most one dataset, computed once."""
        cached = self._liveness_cache
        if (
            cached is None
            or len(cached[0]) != len(self.liveness)
            or any(a is not b for a, b in zip(cached[0], self.liveness))
        ):
            union = [union_liveness(self.liveness)] if self.liveness else []
            cached = self._liveness_cache = (tuple(self.liveness), union)
        return cached[1]

    def plan(
        self,
        views: list[VantageDayView],
        chunk_size: int | str | None = None,
        workers: int | None = None,
        kernel: str | None = None,
    ) -> ExecutionPlan:
        """Build (without executing) the plan a fold of ``views`` would run.

        This is what ``python -m repro plan`` (and ``infer --explain``)
        prints: mode, storage, shard layout, chunk resolution and the
        resolved kernel backend — pure data, nothing folded.
        """
        return ExecutionPlanner().plan(
            views, chunk_size=chunk_size, workers=workers, kernel=kernel
        )

    def accumulate(
        self,
        views: list[VantageDayView],
        chunk_size: int | str | None = None,
        workers: int | None = None,
        context: RunContext | None = None,
        kernel: str | None = None,
    ) -> PrefixAccumulator:
        """Fold views into a mergeable accumulator with this instance's
        ASN-ignore configuration applied.

        The fold runs through the execution engine: the planner picks
        serial / chunked / parallel from the knobs and the views, and
        every chunk, view and worker lands on the ``context``'s
        observability spine.  The result is bit-identical for any plan
        (and for either kernel backend).
        """
        plan = self.plan(
            views, chunk_size=chunk_size, workers=workers, kernel=kernel
        )
        if context is None:
            context = RunContext()
        return execute_plan(
            plan,
            views,
            context,
            ignore_sources_from_asns=self.config.ignore_sources_from_asns,
        )

    def infer(
        self,
        views: list[VantageDayView],
        use_spoofing_tolerance: bool = False,
        refine: bool = True,
        chunk_size: int | str | None = None,
        workers: int | None = None,
        context: RunContext | None = None,
        kernel: str | None = None,
    ) -> MetaTelescopeResult:
        """Run the full pipeline (+ optional tolerance and refinement).

        ``chunk_size`` bounds ingestion memory (``"auto"`` picks a size
        per day), ``workers`` shards the fold across threads
        and ``kernel`` picks the fold backend; classification is
        bit-identical under any combination.  The fold's and the
        stages' timings are ``context``'s events (a fresh context when
        none is passed).
        """
        if not views:
            raise ValueError("need at least one vantage-day view")
        if context is None:
            context = RunContext()
        accumulator = self.accumulate(
            views, chunk_size=chunk_size, workers=workers, context=context,
            kernel=kernel,
        )
        return self.infer_accumulated(
            accumulator,
            use_spoofing_tolerance=use_spoofing_tolerance,
            refine=refine,
            context=context,
        )

    def infer_accumulated(
        self,
        accumulator: PrefixAccumulator,
        use_spoofing_tolerance: bool = False,
        refine: bool = True,
        context: RunContext | None = None,
    ) -> MetaTelescopeResult:
        """Run inference on already-streamed aggregates.

        This is the incremental entry point: the accumulator may have
        been built chunk by chunk, merged from partial accumulators, or
        carried over from earlier days — the views themselves are no
        longer needed.
        """
        if accumulator.is_empty():
            raise ValueError("need at least one vantage-day view")
        config = self.config
        if use_spoofing_tolerance:
            if self.unrouted_baseline is None:
                raise ValueError(
                    "spoofing tolerance requires an unrouted baseline"
                )
            tolerance = tolerances_from_accumulator(
                accumulator, self.unrouted_baseline
            )
            config = dataclasses.replace(config, spoof_tolerance=tolerance)
        routing = self.routing_for_days(accumulator.days())
        pipeline = run_pipeline_accumulated(
            accumulator, routing, config, special=self.special, context=context
        )
        if refine:
            refinement = refine_with_liveness(
                pipeline.dark_blocks, self.liveness_union()
            )
        else:
            refinement = RefinementResult(
                final_blocks=pipeline.dark_blocks,
                removed_blocks=pipeline.dark_blocks[:0],
            )
        return MetaTelescopeResult(pipeline=pipeline, refinement=refinement)

    def infer_snapshot(
        self,
        views: list[VantageDayView],
        use_spoofing_tolerance: bool = False,
        refine: bool = True,
        chunk_size: int | str | None = None,
        kernel: str | None = None,
    ) -> ClassificationSnapshot:
        """Run :meth:`infer` and freeze the outcome as a snapshot of the
        latest day among the views.

        The snapshot's provenance records the execution plan that
        produced it (read off the run's context), including the
        resolved kernel backend.
        """
        context = RunContext()
        result = self.infer(
            views,
            use_spoofing_tolerance=use_spoofing_tolerance,
            refine=refine,
            chunk_size=chunk_size,
            context=context,
            kernel=kernel,
        )
        day = max(view.day for view in views)
        return result.to_snapshot(
            day, provenance={"plan": context.plan.to_dict()}
        )

    def captured_traffic(
        self,
        views: list[VantageDayView],
        result: "MetaTelescopeResult | np.ndarray",
    ) -> FlowTable:
        """Data product (b): flows destined to the inferred prefixes.

        ``result`` may be a full :class:`MetaTelescopeResult` or a bare
        array of /24 block ids (e.g. an online instance's serving list).
        """
        prefixes = result.prefixes if hasattr(result, "prefixes") else result
        tables = [view.flows.toward_blocks(prefixes) for view in views]
        return FlowTable.concat(tables)

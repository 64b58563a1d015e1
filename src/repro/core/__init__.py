"""Core: the meta-telescope inference methodology (the paper's Section 4).

* :mod:`repro.core.thresholds` — packet-size fingerprint tuning (Table 3);
* :mod:`repro.core.accum` — mergeable per-/24 streaming aggregation;
* :mod:`repro.core.engine` — execution planning (ExecutionPlan /
  RunContext), the one fold loop (each day into its own partial, on a
  pool of threads or not, the days merged in order) and the
  observability spine every frontend runs through;
* :mod:`repro.core.stages` — the funnel's steps over finalized columns;
* :mod:`repro.core.pipeline` — the seven-step inference pipeline (Figure 2);
* :mod:`repro.core.spoofing_tolerance` — the unrouted-space tolerance (§7.2);
* :mod:`repro.core.refine` — liveness refinement and spoof-mitigation
  extensions (§4.3, §9);
* :mod:`repro.core.metatelescope` — the public facade, the one door
  from views to verdicts;
* :mod:`repro.core.evaluation` — coverage and ground-truth metrics (§4.3).

A simulated world's operator is ``MetaTelescope.for_world(world)``;
``telescope.infer(views)`` then plans, folds, classifies and refines.
Per-day series are one ``infer(views, refine=False)`` per day, and the
§7.1 stability recommendation is
:func:`repro.net.blocksets.sorted_in_at_least` over their dark sets.
"""

from repro.core.accum import (
    AUTO_CHUNK,
    FinalizedAggregates,
    PrefixAccumulator,
    adaptive_chunk_rows,
)
from repro.core.engine import (
    ExecutionEvent,
    ExecutionKnobs,
    ExecutionPlan,
    ExecutionPlanner,
    JsonlSink,
    MemorySink,
    RunContext,
    execute_plan,
    resolve_execution_knobs,
    validate_trace_event,
    validate_trace_file,
)
from repro.core.pipeline import (
    FunnelCounts,
    PipelineConfig,
    PipelineResult,
    run_pipeline_accumulated,
)
from repro.core.thresholds import (
    ClassifierEvaluation,
    evaluate_thresholds,
    label_isp_blocks,
)
from repro.core.spoofing_tolerance import tolerances_from_accumulator
from repro.core.refine import refine_with_liveness
from repro.core.federation import (
    FederatedResult,
    MarkingRegistry,
    OperatorReport,
    QuorumError,
    ReportValidation,
    federate,
    validate_reports,
)
from repro.core.metatelescope import MetaTelescope, MetaTelescopeResult
from repro.core.snapshot import (
    SNAPSHOT_COLUMNS,
    VERDICT_CANDIDATE,
    VERDICT_DARK,
    VERDICT_GRAY,
    VERDICT_NAMES,
    VERDICT_UNCLEAN,
    VERDICT_UNKNOWN,
    ClassificationSnapshot,
    PointAnswer,
    SnapshotDiff,
    build_snapshot,
)
from repro.core.evaluation import telescope_coverage, confusion_against_truth

__all__ = [
    "AUTO_CHUNK",
    "FinalizedAggregates",
    "PrefixAccumulator",
    "adaptive_chunk_rows",
    "ExecutionEvent",
    "ExecutionKnobs",
    "ExecutionPlan",
    "ExecutionPlanner",
    "JsonlSink",
    "MemorySink",
    "RunContext",
    "execute_plan",
    "resolve_execution_knobs",
    "validate_trace_event",
    "validate_trace_file",
    "FunnelCounts",
    "PipelineConfig",
    "PipelineResult",
    "run_pipeline_accumulated",
    "ClassifierEvaluation",
    "evaluate_thresholds",
    "label_isp_blocks",
    "tolerances_from_accumulator",
    "refine_with_liveness",
    "FederatedResult",
    "MarkingRegistry",
    "OperatorReport",
    "QuorumError",
    "ReportValidation",
    "federate",
    "validate_reports",
    "MetaTelescope",
    "MetaTelescopeResult",
    "SNAPSHOT_COLUMNS",
    "VERDICT_CANDIDATE",
    "VERDICT_DARK",
    "VERDICT_GRAY",
    "VERDICT_NAMES",
    "VERDICT_UNCLEAN",
    "VERDICT_UNKNOWN",
    "ClassificationSnapshot",
    "PointAnswer",
    "SnapshotDiff",
    "build_snapshot",
    "telescope_coverage",
    "confusion_against_truth",
]

"""The execution engine: plans, knobs, the trace spine, bit-identity.

The engine's core invariant — every (plan, knob) combination folds and
classifies **bit-identically** — is pinned here as a matrix over
execution modes {serial, chunked, parallel(2), parallel(3),
parallel(4)}, storage backends {in-memory views, flowpack archive
views}, and fault-injected inputs (non-integer sampling factors
included: every plan folds a day and merges the days alike).  The trace
spine gets a golden schema test: every JSONL event must carry exactly
the :data:`~repro.core.engine.TRACE_FIELDS` keys, in order, with the
schema's types.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import (
    TRACE_FIELDS,
    ExecutionPlanner,
    JsonlSink,
    MemorySink,
    RunContext,
    default_workers,
    execute_plan,
    resolve_execution_knobs,
    validate_trace_event,
    validate_trace_file,
)
from repro.core.metatelescope import MetaTelescope
from repro.core.online import OnlineMetaTelescope
from repro.core.parallel import partial_states_identical
from repro.core.pipeline import PipelineConfig, run_pipeline_accumulated
from repro.faults import FaultPlan, standard_injector
from repro.vantage.archive import export_view
from repro.vantage.sampling import VantageDayView

from _factories import fold
from test_pipeline_properties import ROUTING, flow_tables


@pytest.fixture(scope="module")
def views(observatory):
    return observatory.all_ixp_views(num_days=2)


@pytest.fixture(scope="module")
def archive_views(views, tmp_path_factory):
    root = tmp_path_factory.mktemp("engine-archives")
    return [
        export_view(view, root / f"v{index}.fpk", chunk_rows=257)
        for index, view in enumerate(views)
    ]


@pytest.fixture(scope="module")
def faulted_views(views):
    plan = FaultPlan(seed=3)
    plan.add(standard_injector("truncate", days=frozenset({0})))
    plan.add(standard_injector("missample", days=frozenset({1})))
    faulted = []
    for day in (0, 1):
        day_views = [view for view in views if view.day == day]
        faulted.extend(plan.apply(day, day_views).views)
    return faulted


@pytest.fixture(scope="module")
def telescope(world):
    return MetaTelescope(
        collector=world.collector,
        unrouted_baseline=world.unrouted_baseline_blocks,
        config=PipelineConfig(
            avg_size_threshold=world.config.avg_size_threshold,
            volume_threshold_pkts_day=world.config.volume_threshold_pkts_day,
        ),
    )


def classify(telescope, accumulator):
    pipeline = telescope.infer_accumulated(accumulator, refine=False).pipeline
    return (
        pipeline.dark_blocks,
        pipeline.unclean_blocks,
        pipeline.gray_blocks,
    )


class TestKnobResolution:
    def test_defaults_are_serial(self):
        knobs = resolve_execution_knobs()
        assert knobs.workers == 1
        assert knobs.chunk_size is None

    def test_workers_zero_means_one_per_cpu(self):
        assert resolve_execution_knobs(workers=0).workers == default_workers()
        assert resolve_execution_knobs(workers=0, cpus=6).workers == 6

    def test_explicit_workers_honoured_even_oversubscribed(self):
        # Oversubscription is the operator's call; classification is
        # identical at any count, so the engine never second-guesses.
        assert resolve_execution_knobs(workers=5, cpus=1).workers == 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": -1},
            {"chunk_size": 0},
            {"chunk_size": "bogus"},
            {"kernel": "bogus"},
        ],
    )
    def test_junk_knobs_raise(self, kwargs):
        with pytest.raises(ValueError):
            resolve_execution_knobs(**kwargs)


class TestPlanner:
    def test_default_plan_is_serial(self, views):
        plan = ExecutionPlanner().plan(views)
        assert plan.mode == "serial"
        assert plan.workers == 1
        assert plan.days() == 2
        assert plan.total_rows() == sum(view.num_rows for view in views)

    def test_chunk_size_plans_chunked(self, views):
        plan = ExecutionPlanner().plan(views, chunk_size=100)
        assert plan.mode == "chunked"
        assert all(spec.chunk_rows == 100 for spec in plan.views)

    def test_workers_plan_parallel_over_days(self, views):
        # The pool shares out days: two days take two of three threads,
        # and one day is a serial fold whatever the worker count.
        plan = ExecutionPlanner().plan(views, workers=3)
        assert plan.mode == "parallel"
        assert plan.workers == 2
        assert dict(plan.describe_rows())["days"] == "2"
        one_day = [view for view in views if view.day == 0]
        for knobs, mode in (({}, "serial"), ({"chunk_size": 100}, "chunked")):
            plan = ExecutionPlanner().plan(one_day, workers=3, **knobs)
            assert (plan.mode, plan.workers) == (mode, 1)
        assert ExecutionPlanner().plan([], workers=3).workers == 1

    def test_archive_views_are_planned_as_memmap(self, archive_views):
        plan = ExecutionPlanner().plan(archive_views)
        assert all(spec.storage == "archive" for spec in plan.views)
        assert dict(plan.describe_rows())["storage"] == "archive"

    def test_plan_is_data(self, views):
        plan = ExecutionPlanner().plan(views, workers=2, chunk_size="auto")
        encoded = json.loads(json.dumps(plan.to_dict()))
        assert list(encoded) == [
            "mode", "workers", "total_rows", "kernel", "views",
        ]
        assert encoded["mode"] == "parallel"
        assert len(encoded["views"]) == len(views)
        assert [name for name, _ in plan.describe_rows()] == [
            "mode", "views", "rows", "storage", "days", "workers",
            "chunk rows", "kernel",
        ]


def _plan_matrix():
    return [
        {},
        {"chunk_size": 173},
        {"chunk_size": "auto"},
        {"workers": 2},
        {"workers": 4, "chunk_size": "auto"},
        {"workers": 3},
        {"chunk_size": 64},
        {"workers": 2, "chunk_size": 64},
    ]


class TestBitIdenticalMatrix:
    """Any plan the planner chooses folds identically."""

    @pytest.mark.parametrize("knobs", _plan_matrix())
    @pytest.mark.parametrize("backend", ["memory", "archive"])
    def test_matrix(self, views, archive_views, telescope, knobs, backend):
        chosen = views if backend == "memory" else archive_views
        baseline = fold(views)
        plan = ExecutionPlanner().plan(chosen, **knobs)
        folded = execute_plan(plan, chosen)
        assert partial_states_identical(baseline, folded)
        dark, unclean, gray = classify(telescope, folded)
        base_dark, base_unclean, base_gray = classify(telescope, baseline)
        np.testing.assert_array_equal(dark, base_dark)
        np.testing.assert_array_equal(unclean, base_unclean)
        np.testing.assert_array_equal(gray, base_gray)

    @pytest.mark.parametrize(
        "knobs",
        [{"workers": 2}, {"chunk_size": 97}, {"workers": 3}],
    )
    def test_fault_injected_views_fold_identically(
        self, faulted_views, telescope, knobs
    ):
        # ``missample`` injects non-integer sampling factors: a pool
        # folds the serial fold's state bit for bit; a chunked day sums
        # its scaled batches in another order than a whole day, so the
        # contract across batch sizes is classification identity.
        baseline = fold(faulted_views, chunk_size=knobs.get("chunk_size"))
        plan = ExecutionPlanner().plan(faulted_views, **knobs)
        folded = execute_plan(plan, faulted_views)
        assert partial_states_identical(baseline, folded)
        baseline = fold(faulted_views)
        for got, expected in zip(
            classify(telescope, folded), classify(telescope, baseline)
        ):
            np.testing.assert_array_equal(got, expected)

    @settings(max_examples=10, deadline=None)
    @given(
        tables=st.lists(flow_tables(), min_size=1, max_size=3),
        chunk=st.one_of(st.none(), st.just("auto"), st.integers(1, 500)),
        workers=st.sampled_from([None, 2, 3]),
    )
    def test_property_any_plan_identical(self, tables, chunk, workers):
        views = [
            VantageDayView(vantage=f"V{i}", day=i % 2, flows=table)
            for i, table in enumerate(tables)
        ]
        baseline = fold(views)
        plan = ExecutionPlanner().plan(
            views, chunk_size=chunk, workers=workers
        )
        folded = execute_plan(plan, views)
        assert partial_states_identical(baseline, folded)
        base = run_pipeline_accumulated(baseline, ROUTING)
        got = run_pipeline_accumulated(folded, ROUTING)
        np.testing.assert_array_equal(got.dark_blocks, base.dark_blocks)
        np.testing.assert_array_equal(got.gray_blocks, base.gray_blocks)


class TestEventSpine:
    def test_serial_fold_emits_plan_and_view_events(self, views):
        plan = ExecutionPlanner().plan(views)
        context = RunContext()
        execute_plan(plan, views, context)
        kinds = [event.kind for event in context.events()]
        assert kinds[0] == "plan"
        assert kinds.count("view") == len(views)
        # A serial fold has no fan-out: no worker / merge events.
        assert context.events(["worker", "merge"]) == ()

    def test_chunked_fold_emits_chunk_events(self, views):
        plan = ExecutionPlanner().plan(views, chunk_size=128)
        context = RunContext()
        execute_plan(plan, views, context)
        chunk_events = context.events(["chunk"])
        assert len(chunk_events) >= len(views)
        assert sum(event.rows_in for event in chunk_events) == sum(
            view.num_rows for view in views
        )

    def test_parallel_fold_emits_worker_ipc_merge(self, views):
        plan = ExecutionPlanner().plan(views, workers=2)
        context = RunContext()
        execute_plan(plan, views, context)
        names = [event.name for event in context.events(["worker", "merge"])]
        assert names == ["fanout[d0]", "fanout[d1]", "merge"]
        # Each day's views are read on its thread and reported from the
        # calling thread once the day is folded, day after day.
        assert [event.name for event in context.events(["view"])] == [
            f"{view.vantage}@d{view.day}" for view in views
        ]
        # The fan-out is threads: no wire form, so no IPC event.
        assert context.events(["ipc"]) == ()

    def test_scoped_events_filter_timings(self):
        context = RunContext()
        context.emit("stage", "outer", 0.1, rows_out=5)
        with context.scoped("inner"):
            context.emit("stage", "inner", 0.2, rows_out=3)
        context.emit("chunk", "v@d0", 0.1, rows_in=4)
        assert [
            (event.name, event.scope) for event in context.events(["stage"])
        ] == [("outer", "run"), ("inner", "inner")]

    def test_events_fan_out_to_attached_sinks(self):
        sinks = (MemorySink(), MemorySink())
        context = RunContext(sinks=sinks)
        context.emit("stage", "tcp", 0.001, rows_out=7)
        context.emit("chunk", "v@d0", 0.001, rows_in=10)
        for sink in sinks:
            assert sink.events == list(context.events())
        assert [event.kind for event in context.events()] == ["stage", "chunk"]


class TestTraceGolden:
    def test_traced_run_validates_and_keeps_field_order(
        self, views, telescope, tmp_path
    ):
        path = tmp_path / "trace.jsonl"
        context = RunContext(sinks=(JsonlSink(path),))
        telescope.infer(views, workers=2, chunk_size="auto", context=context)
        context.close()
        assert validate_trace_file(path) == len(context.events())
        kinds = set()
        for line in path.read_text().splitlines():
            event = json.loads(line)
            # Golden: the serialised key order IS the schema order.
            assert tuple(event) == TRACE_FIELDS
            kinds.add(event["kind"])
        assert {"plan", "worker", "merge", "stage"} <= kinds
        assert "ipc" not in kinds

    def test_tampered_events_rejected(self, tmp_path):
        good = RunContext().emit("stage", "tcp", 0.1, rows_out=1).to_json()
        validate_trace_event(good)
        for tamper in (
            {"v": 99},
            {"seconds": -1.0},
            {"kind": None},
            {"rows_out": "many"},
        ):
            with pytest.raises(ValueError):
                validate_trace_event({**good, **tamper})
        with pytest.raises(ValueError):
            validate_trace_event({k: v for k, v in good.items() if k != "meta"})
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(ValueError):
            validate_trace_file(empty)

    def test_jsonl_sink_appends_across_contexts(self, tmp_path):
        path = tmp_path / "rolling.jsonl"
        for _ in range(2):
            sink = JsonlSink(path)
            context = RunContext(sinks=(sink,))
            context.emit("stage", "tcp", 0.1)
            context.close()
        assert validate_trace_file(path) == 2


class TestFacadesRunThroughEngine:
    def test_metatelescope_records_its_context(self, views, telescope):
        context = RunContext()
        result = telescope.infer(views, workers=2, context=context)
        assert context.plan.mode == "parallel"
        stages = context.events(["stage"])
        assert [event.name for event in stages] == [
            "tcp", "avg-size", "source-unseen", "special", "routed",
            "volume", "classify",
        ]
        funnel = result.pipeline.funnel
        assert [event.rows_out for event in stages] == [
            funnel.after_tcp, funnel.after_avg_size,
            funnel.after_source_unseen, funnel.after_special,
            funnel.after_routed, funnel.after_volume, funnel.after_volume,
        ]
        assert stages[0].rows_in == funnel.observed
        assert all(
            later.rows_in == earlier.rows_out
            for earlier, later in zip(stages, stages[1:])
        )
        assert stages[-1].meta == {
            "dark": len(result.pipeline.dark_blocks),
            "unclean": len(result.pipeline.unclean_blocks),
            "gray": len(result.pipeline.gray_blocks),
        }

    def test_online_timings_come_from_the_event_stream(
        self, views, telescope
    ):
        online = OnlineMetaTelescope(
            telescope=telescope,
            window_days=2,
            min_stable_days=1,
            use_spoofing_tolerance=False,
        )
        online.update(0, [v for v in views if v.day == 0])
        # Day 0 is the whole window: one inference, in scope window.
        first = online.last_run_context()
        assert [event.scope for event in first.events(["stage"])] == (
            ["window"] * 7
        )
        online.update(1, [v for v in views if v.day == 1])
        context = online.last_run_context()
        assert context is not None
        assert context.events(["quarantine"])
        assert {event.scope for event in context.events(["view"])} == {
            "fold"
        }
        stages = context.events(["stage"])
        assert [event.scope for event in stages] == ["day"] * 7 + ["window"] * 7

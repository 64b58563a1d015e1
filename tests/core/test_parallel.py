"""Bit-identity and plumbing of the parallel fold.

The contract of :func:`repro.core.engine.execute_plan`: every plan
folds each day into its own partial and merges the partials in day
order, and a parallel plan only maps the days over a pool of threads.
So any worker count and any thread interleaving folds the serial
fold's state **bit for bit** — for non-integer sampling factors too —
and starts no process.  These tests pin that contract on seeded
worlds, random flow tables, archive-backed and fault-injected inputs,
and cover the satellites that ride along (adaptive chunking, the
state form, routing-table interval cache).
"""

import multiprocessing
import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.accum import (
    AUTO_CHUNK,
    PrefixAccumulator,
    adaptive_chunk_rows,
    resolve_chunk_size,
)
from repro.core import accum
from repro.core.engine import (
    ExecutionPlanner,
    RunContext,
    default_workers,
    execute_plan,
)
from repro.core.kernels import get_kernel
from repro.core.metatelescope import MetaTelescope
from repro.core.online import OnlineMetaTelescope
from repro.core.parallel import partial_states_identical
from repro.core.pipeline import PipelineConfig, run_pipeline_accumulated
from repro.faults import FaultPlan, standard_injector
from repro.net.family import FAMILY_IPV4, FAMILY_IPV6
from repro.net.trie import PrefixTrie
from repro.traffic.flows import FlowTable
from repro.vantage.archive import export_view
from repro.vantage.sampling import VantageDayView

from _factories import families_of, fold
from test_accumulator import assert_identical
from test_kernels import flow_tables as family_flow_tables
from test_pipeline_properties import ROUTING, flow_tables


#: Non-integer sampling factors: a scaled estimate's float sums depend
#: on their order in the last bit.
FACTORS = (1 / 0.3, 7.3, 2.2)


@pytest.fixture(scope="module")
def multi_day(observatory):
    return observatory.all_ixp_views(num_days=3)


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


@pytest.fixture(scope="module")
def routing(telescope, multi_day):
    return telescope.routing_for_days([view.day for view in multi_day])


@pytest.fixture(scope="module")
def serial(multi_day):
    return fold(multi_day)


class TestParallelEqualsSerial:
    @pytest.mark.parametrize("workers", [2, 3, 4, 8])
    def test_any_worker_count_identical(self, multi_day, serial, workers):
        context = RunContext()
        merged = fold(multi_day, workers=workers, context=context)
        assert partial_states_identical(serial, merged)
        (merge,) = context.events(["merge"])
        assert merge.rows_out >= 1  # partials
        assert sum(
            event.rows_in for event in context.events(["worker"])
        ) == sum(len(view.flows) for view in multi_day)

    @pytest.mark.parametrize("chunk_size", [64, AUTO_CHUNK, None])
    def test_chunking_inside_workers_identical(
        self, multi_day, serial, chunk_size
    ):
        merged = fold(multi_day, workers=3, chunk_size=chunk_size)
        assert partial_states_identical(serial, merged)

    def test_classification_identical(self, multi_day, routing, telescope):
        merged = fold(multi_day, workers=4)
        assert_identical(
            run_pipeline_accumulated(
                fold(multi_day), routing, telescope.config
            ),
            run_pipeline_accumulated(merged, routing, telescope.config),
        )

    def test_workers_zero_uses_all_cpus(self, multi_day, serial):
        context = RunContext()
        merged = fold(multi_day, workers=0, context=context)
        assert partial_states_identical(serial, merged)
        if default_workers() == 1:
            assert context.plan.mode == "serial"
            assert not context.events(["worker"])
        else:
            assert context.plan.workers == min(default_workers(), 3)
            # One worker event per day, whatever the pool's size.
            assert len(context.events(["worker"])) == 3

    def test_empty_views_observed_everywhere(self):
        from repro.traffic.flows import FlowTable

        silent = [
            VantageDayView(vantage=f"S{i}", day=i, flows=FlowTable.empty())
            for i in range(3)
        ]
        merged = fold(silent, workers=2)
        assert merged.days() == [0, 1, 2]
        assert set(merged.vantage_source_blocks()) == {"S0", "S1", "S2"}

    def test_identical_under_fault_injection(self, multi_day, routing, telescope):
        """Fault-injected inputs fold identically at any worker count.

        The ``missample`` fault injects *non-integer* sampling factors;
        the pool folds and merges the days as the serial loop does, so
        the state is bit-identical, not only the classification.
        """
        plan = FaultPlan(seed=3)
        for name in ("truncate", "duplicate", "corrupt", "missample"):
            plan.add(standard_injector(name, days=frozenset({1})))
        faulted = []
        for day in range(3):
            day_views = [view for view in multi_day if view.day == day]
            faulted.extend(plan.apply(day, day_views).views)
        merged = fold(faulted, workers=4)
        assert partial_states_identical(fold(faulted), merged)
        assert_identical(
            run_pipeline_accumulated(
                fold(faulted), routing, telescope.config
            ),
            run_pipeline_accumulated(merged, routing, telescope.config),
        )

    @given(
        flow_tables(),
        flow_tables(),
        st.integers(min_value=2, max_value=6),
    )
    @settings(max_examples=15, deadline=None)
    def test_random_tables_any_worker_count(self, flows_a, flows_b, workers):
        views = [
            VantageDayView(vantage="A", day=0, flows=flows_a),
            VantageDayView(vantage="B", day=1, flows=flows_b),
        ]
        merged = fold(views, workers=workers)
        assert_identical(
            run_pipeline_accumulated(fold(views), ROUTING),
            run_pipeline_accumulated(merged, ROUTING),
        )


class TestNonIntegerFactorsPoolEqualsSerial:
    """Serial and pooled folds of several days with non-integer sampling
    factors carry bit-identical state: every plan folds a day into its
    own partial, with the same batches, and merges the days in day
    order."""

    @pytest.fixture(scope="class")
    def scaled(self, multi_day):
        return [
            view.with_flows(view.flows, sampling_factor=FACTORS[index % 3])
            for index, view in enumerate(multi_day)
        ]

    @pytest.mark.parametrize("kernel", ["numpy", "native"])
    @pytest.mark.parametrize("chunk_size", [None, 500, AUTO_CHUNK])
    def test_any_worker_count(self, scaled, kernel, chunk_size):
        serial = fold(scaled, kernel=kernel, chunk_size=chunk_size)
        for workers in (2, 3, 4):
            pooled = fold(
                scaled, workers=workers, kernel=kernel, chunk_size=chunk_size
            )
            assert partial_states_identical(serial, pooled), workers

    def test_missample_day(self, multi_day):
        plan = FaultPlan(seed=11)
        plan.add(standard_injector("missample", days=frozenset({1})))
        faulted = [
            view
            for day in range(3)
            for view in plan.apply(
                day, [view for view in multi_day if view.day == day]
            ).views
        ]
        assert any(view.sampling_factor % 1 for view in faulted)
        serial = fold(faulted)
        for workers in (2, 3, 4):
            pooled = fold(faulted, workers=workers)
            assert partial_states_identical(serial, pooled), workers


class SpyTable:
    """A flow table that records the chunk rows it is asked for."""

    def __init__(self, flows: FlowTable, asked: list) -> None:
        self.flows, self.asked = flows, asked

    def __len__(self) -> int:
        return len(self.flows)

    def slice_rows(self, start: int, stop: int) -> "SpyTable":
        return SpyTable(self.flows.slice_rows(start, stop), self.asked)

    def iter_chunks(self, chunk_rows=None):
        self.asked.append(chunk_rows)
        return self.flows.iter_chunks(chunk_rows)


class TestThePlanIsWhatRuns:
    def test_worker_folds_the_plans_chunk_rows_and_compaction(
        self, multi_day, monkeypatch
    ):
        """A pool thread folds what the plan says: each day's views in
        the batch rows the plan resolved for that day, into one fresh
        accumulator per day, and the days' partials merge into one
        more."""
        flows = FlowTable.concat([view.flows for view in multi_day])
        asked: list = []
        views = [
            VantageDayView(
                "V",
                day,
                SpyTable(flows.slice_rows(3000 * day, 3000 * day + 2500), asked),
            )
            for day in range(3)
        ]
        plan = ExecutionPlanner().plan(views, chunk_size=1024, workers=2)
        assert plan.mode == "parallel" and plan.workers == 2
        assert {spec.chunk_rows for spec in plan.views} == {1024}

        built = []
        original = PrefixAccumulator.__init__

        def spy(self, *args, **kwargs):
            original(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(PrefixAccumulator, "__init__", spy)
        merged = execute_plan(plan, views)
        monkeypatch.undo()

        assert asked == [1024] * 3
        assert len(built) == 3 + 1
        assert merged is built[-1]
        for partial in built[:-1]:
            for sums in families_of(partial):
                assert len(sums._parts) <= 1
        assert partial_states_identical(
            fold(
                [VantageDayView("V", day, view.flows.flows)
                 for day, view in enumerate(views)],
                chunk_size=1024,
            ),
            merged,
        )


class TestFanOutTrace:
    def test_worker_events_end_before_the_merge_starts(
        self, multi_day, monkeypatch
    ):
        """Each ``worker`` event is stamped when its thread started its
        day, so a trace places the folds inside the pool: after the
        ``kernel`` event, and over before the (here slowed) merge
        begins."""
        merged_of = PrefixAccumulator.merged

        def slow_merged(partials):
            time.sleep(0.05)
            return merged_of(partials)

        monkeypatch.setattr(
            PrefixAccumulator, "merged", staticmethod(slow_merged)
        )
        context = RunContext()
        fold(multi_day, workers=2, context=context)
        (kernel,) = context.events(["kernel"])
        (merged,) = context.events(["merge"])
        workers = context.events(["worker"])
        assert [event.name for event in workers] == [
            "fanout[d0]", "fanout[d1]", "fanout[d2]"
        ]
        assert merged.seconds >= 0.05
        for event in workers:
            assert event.started >= kernel.started, event.name
            assert event.started + event.seconds <= merged.started, event.name


@pytest.fixture
def no_processes(monkeypatch):
    """Make starting a process, by fork or through multiprocessing, an
    error for the duration of a test."""

    def refuse(*args, **kwargs):
        raise AssertionError("the fold started a process")

    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)


class TestNoProcesses:
    """A ``workers >= 2`` fold starts no process, so it is safe inside a
    multi-threaded caller (the serving daemon's background folder)."""

    def test_memory_archive_and_mixed_views(
        self, multi_day, serial, tmp_path, no_processes
    ):
        archived = [
            export_view(view, tmp_path / f"{index}.fpk", chunk_rows=211)
            for index, view in enumerate(multi_day)
        ]
        mixed = [
            archived[index] if index % 2 else view
            for index, view in enumerate(multi_day)
        ]
        for views in (multi_day, archived, mixed):
            for workers in (2, 3):
                merged = fold(views, workers=workers)
                assert partial_states_identical(serial, merged)

    def test_online_day_inside_a_thread(
        self, observatory, telescope, no_processes
    ):
        """The serving daemon folds on a background thread: an online
        day there, and a pooled fold of three days, start no process
        and fold what the calling thread folds."""
        days = [
            list(observatory.day(day).ixp_views.values()) for day in range(3)
        ]

        def run():
            online = OnlineMetaTelescope(
                telescope=telescope,
                window_days=2,
                min_stable_days=1,
                use_spoofing_tolerance=False,
            )
            online.update(0, days[0])
            pooled = telescope.accumulate(
                [view for views in days for view in views], workers=2
            )
            return online, pooled

        result, errors = [], []

        def work():
            try:
                result.append(run())
            except Exception as error:  # surfaced below
                errors.append(error)

        thread = threading.Thread(target=work)
        thread.start()
        thread.join(timeout=120)
        assert not thread.is_alive()
        assert not errors, errors
        ((online, pooled),) = result
        here, _ = run()
        np.testing.assert_array_equal(
            here.current_prefixes(), online.current_prefixes()
        )
        serial = telescope.accumulate([view for views in days for view in views])
        assert partial_states_identical(serial, pooled)


class TestInterleavings:
    @given(
        st.sampled_from([FAMILY_IPV4, FAMILY_IPV6]).flatmap(
            lambda family: st.lists(
                family_flow_tables(family), min_size=1, max_size=4
            )
        ),
        st.integers(min_value=2, max_value=4),
        st.sampled_from(["numpy", "native"]),
        st.one_of(st.none(), st.integers(min_value=1, max_value=40)),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_interleaving_equals_serial(
        self, tables, workers, kernel, chunk_size
    ):
        """Threads switched every 10 µs, any worker count and batch
        size, under either kernel and family and with non-integer
        sampling factors, fold what serial does."""
        views = [
            VantageDayView(f"V{index}", index % 3, table, FACTORS[index % 3])
            for index, table in enumerate(tables)
        ]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            merged = fold(
                views, workers=workers, kernel=kernel, chunk_size=chunk_size,
            )
        finally:
            sys.setswitchinterval(previous)
        assert partial_states_identical(
            fold(views, kernel=kernel, chunk_size=chunk_size), merged
        )


class TestStateForm:
    def test_ships_per_day_source_key_sets(self, multi_day):
        accumulator = fold(multi_day)
        state = accumulator.to_state()
        assert "version" not in state
        assert "src_ip_sums" not in state
        # dst sums: keys, TCP packets, TCP bytes.
        assert len(state["dst_ip_sums"]) == 3
        assert sorted(state["src_ips_by_day"]) == accumulator.days()
        for part in state["src_ips_by_day"].values():
            assert isinstance(part, tuple) and len(part) == 1
            (keys,) = part
            assert keys.dtype == np.int64 and np.all(keys[1:] > keys[:-1])


class TestFacadeIntegration:
    def test_metatelescope_workers_identical(self, multi_day, telescope):
        serial = telescope.infer(
            multi_day, use_spoofing_tolerance=True, refine=False
        )
        context = RunContext()
        parallel = telescope.infer(
            multi_day, use_spoofing_tolerance=True, refine=False, workers=3,
            context=context,
        )
        assert_identical(serial.pipeline, parallel.pipeline)
        stages = [
            event.name
            for event in context.events(["worker", "merge"])
        ]
        assert "merge" in stages
        assert any(stage.startswith("fanout[") for stage in stages)

    def test_online_workers_identical(self, observatory, telescope):
        """The online window is the pooled fold: both fold each day
        into its own partial and merge the partials in day order."""
        online = OnlineMetaTelescope(
            telescope=telescope,
            window_days=2,
            min_stable_days=1,
            use_spoofing_tolerance=False,
        )
        views = []
        for day in range(2):
            day_views = list(observatory.day(day).ixp_views.values())
            online.update(day, day_views)
            views.extend(day_views)
        window = PrefixAccumulator.merged(
            [accumulator for _, accumulator in online._window]
        )
        context = RunContext()
        pooled = telescope.accumulate(views, workers=2, context=context)
        assert partial_states_identical(window, pooled)
        stages = [event.name for event in context.events(["worker"])]
        assert stages == ["fanout[d0]", "fanout[d1]"]


class TestChunkingKnobs:
    def test_adaptive_chunk_rows(self):
        assert adaptive_chunk_rows(0) is None
        assert adaptive_chunk_rows(8192) is None
        assert adaptive_chunk_rows(80_000) is None
        assert adaptive_chunk_rows(1 << 18) is None
        assert adaptive_chunk_rows((1 << 18) + 1) == 1 << 18  # ceiling
        assert adaptive_chunk_rows(10**9) == 1 << 18

    def test_resolve_chunk_size(self):
        assert resolve_chunk_size(None, 10**6) is None
        assert resolve_chunk_size(4096, 10**6) == 4096
        assert resolve_chunk_size(AUTO_CHUNK, 80_000) is None
        assert resolve_chunk_size(AUTO_CHUNK, 10**6) == 1 << 18
        with pytest.raises(ValueError, match="auto"):
            resolve_chunk_size("bogus", 10**6)

    def test_auto_chunking_identical(self, multi_day, serial):
        auto = fold(multi_day, chunk_size=AUTO_CHUNK)
        assert partial_states_identical(serial, auto)

    def test_chunked_squashes_pending_parts(self, multi_day):
        """A chunk-fed accumulator never carries a day's chunk log past
        the day: every family ends the day as one part, so the merge of
        the days holds at most one part per day."""
        days = sorted({view.day for view in multi_day})
        for day in days:
            accumulator = fold(
                [view for view in multi_day if view.day == day], chunk_size=31
            )
            for sums in families_of(accumulator):
                assert len(sums._parts) <= 1
        accumulator = fold(multi_day, chunk_size=31)
        for sums in families_of(accumulator):
            assert len(sums._parts) <= len(days)


def _online_days(telescope, observatory, monkeypatch, kernel, **knobs):
    """Three micro days through a fresh online engine, counting the
    kernel's ``fold_batch`` calls per day; returns the engine, each
    day's snapshot and each day's call count."""
    calls = []
    folder = type(get_kernel(kernel))
    fold_batch = folder.fold_batch

    def spy(self, *args, **kwargs):
        calls[-1] += 1
        return fold_batch(self, *args, **kwargs)

    online = OnlineMetaTelescope(
        telescope=telescope, window_days=3, min_stable_days=2,
        kernel=kernel, **knobs,
    )
    snapshots = []
    with monkeypatch.context() as patch:
        patch.setattr(folder, "fold_batch", spy)
        for day in range(3):
            calls.append(0)
            online.update(day, list(observatory.day(day).ixp_views.values()))
            snapshots.append(online.snapshot())
    return online, snapshots, calls


class TestAutoFoldsADayInOneBatch:
    """``chunk_size="auto"`` folds a day of up to ``_AUTO_CEILING`` rows
    in one kernel call, and a larger day in ceiling-sized batches."""

    def test_one_fold_batch_call_per_day(
        self, telescope, observatory, monkeypatch
    ):
        online, _, calls = _online_days(
            telescope, observatory, monkeypatch, "numpy",
            chunk_size=AUTO_CHUNK,
        )
        assert calls == [1, 1, 1]
        for _, accumulator in online._window:
            for sums in families_of(accumulator):
                assert len(sums._parts) == 1

    @pytest.mark.parametrize("kernel", ["numpy", "native"])
    def test_days_above_the_ceiling_split_and_compact(
        self, telescope, observatory, monkeypatch, kernel
    ):
        _, whole, _ = _online_days(
            telescope, observatory, monkeypatch, kernel, chunk_size=None
        )
        ceiling = 4096
        monkeypatch.setattr(accum, "_AUTO_CEILING", ceiling)
        online, split, calls = _online_days(
            telescope, observatory, monkeypatch, kernel,
            chunk_size=AUTO_CHUNK,
        )
        rows = [
            sum(view.num_rows for view in observatory.day(day).ixp_views.values())
            for day in range(3)
        ]
        assert min(rows) > ceiling
        assert calls == [-(-count // ceiling) for count in rows]
        for _, accumulator in online._window:
            for sums in families_of(accumulator):
                assert len(sums._parts) <= 1
        assert all(a.identical_to(b) for a, b in zip(split, whole))


class TestRoutingTableCache:
    def test_routed_mask_cached_and_correct(self, routing):
        blocks = np.arange(0, 1 << 16, 7, dtype=np.int64)
        first = routing.routed_mask(blocks)
        assert routing._spans is not None
        starts_before = routing._spans[0]
        second = routing.routed_mask(blocks)
        assert routing._spans[0] is starts_before
        np.testing.assert_array_equal(first, second)

    def test_matches_trie(self, routing):
        # Every block inside a stored prefix no longer than a block,
        # checked prefix by prefix rather than through the interval table.
        family = routing.announcements[0].prefix.family
        trie = PrefixTrie(family=family)
        for announcement in routing.announcements:
            trie.insert(announcement.prefix, announcement.origin_asn)
        blocks = np.arange(0, 1 << 16, 13, dtype=np.int64)
        expected = np.zeros(blocks.shape, dtype=bool)
        for prefix, _ in trie.items():
            if prefix.length <= family.block_prefix_length:
                first = prefix.first_block()
                expected |= (blocks >= first) & (blocks < first + prefix.num_blocks())
        np.testing.assert_array_equal(routing.routed_mask(blocks), expected)

"""Bit-identity and plumbing of the parallel inference engine.

The contract of :mod:`repro.core.parallel`: fanning the aggregation out
over any number of threads — any shard order, any merge grouping, any
thread interleaving — classifies **bit-identically** to the serial
fold, and starts no process.  These tests pin that contract on seeded
worlds, random flow tables, archive-backed and fault-injected inputs,
and cover the satellites that ride along (adaptive chunking, compaction
knob, routing-table interval cache).
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
from repro.core import parallel
from repro.core.engine import ExecutionPlanner, RunContext, default_workers
from repro.core.kernels import get_kernel
from repro.core.metatelescope import MetaTelescope
from repro.core.online import OnlineMetaTelescope
from repro.core.parallel import (
    partial_states_identical,
    shard_views,
    tree_merge,
)
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

    def test_oversized_views_split_into_row_shards(self, multi_day, serial):
        context = RunContext()
        merged = fold(
            multi_day, workers=4, max_shard_rows=257, context=context
        )
        assert partial_states_identical(serial, merged)
        assert sum(
            event.meta["shards"] for event in context.events(["worker"])
        ) > len(multi_day)

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
            assert context.plan.workers == default_workers()
            assert len(context.events(["worker"])) == default_workers()

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
        """Fault-injected inputs classify identically at any worker count.

        The ``missample`` fault injects *non-integer* sampling factors,
        where raw float sums may differ in the last bit between shard
        splits (the same caveat the chunked path carries) — so this
        pins the classification contract, like the chunked fault test.
        """
        plan = FaultPlan(seed=3)
        for name in ("truncate", "duplicate", "corrupt", "missample"):
            plan.add(standard_injector(name, days=frozenset({1})))
        faulted = []
        for day in range(3):
            day_views = [view for view in multi_day if view.day == day]
            faulted.extend(plan.apply(day, day_views).views)
        merged = fold(faulted, workers=4)
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
        merged = fold(views, workers=workers, max_shard_rows=7)
        assert_identical(
            run_pipeline_accumulated(fold(views), ROUTING),
            run_pipeline_accumulated(merged, ROUTING),
        )


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
        """A fan-out thread folds what the plan says: each shard in the
        chunk rows the plan resolved for its *view* (not re-resolved
        against the smaller shard), into one fresh accumulator per
        shard bucket."""
        flows = FlowTable.concat([view.flows for view in multi_day])
        flows = flows.slice_rows(0, 10_000)
        asked: list = []
        view = VantageDayView("V", 0, SpyTable(flows, asked))
        plan = ExecutionPlanner().plan(
            [view], chunk_size=AUTO_CHUNK, workers=2
        )
        (spec,) = plan.views
        assert spec.chunk_rows == 8192
        shards = [shard for bucket in plan.shards for shard in bucket]
        # "auto" against a shard alone would have meant "whole".
        assert all(
            adaptive_chunk_rows(stop - start) is None
            for _, start, stop in shards
        )

        built = []
        original = PrefixAccumulator.__init__

        def spy(self, *args, **kwargs):
            original(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(PrefixAccumulator, "__init__", spy)
        merged = parallel.parallel_accumulate_views(
            plan, [view], RunContext(), get_kernel(plan.knobs.kernel),
            frozenset(),
        )
        monkeypatch.undo()

        assert asked == [spec.chunk_rows] * len(shards)
        assert len(built) == len(plan.shards)
        assert partial_states_identical(
            fold([VantageDayView("V", 0, flows)]), merged
        )


class TestFanOutTrace:
    def test_worker_events_end_before_the_merge_starts(
        self, multi_day, monkeypatch
    ):
        """Each ``worker`` event is stamped when its thread starts, so a
        trace places the folds inside the fan-out: after the ``kernel``
        event, and over before the (here slowed) merge begins."""
        merge = parallel.tree_merge

        def slow_merge(partials):
            time.sleep(0.05)
            return merge(partials)

        monkeypatch.setattr(parallel, "tree_merge", slow_merge)
        context = RunContext()
        fold(multi_day, workers=2, context=context)
        (kernel,) = context.events(["kernel"])
        (merged,) = context.events(["merge"])
        workers = context.events(["worker"])
        assert len(workers) == 2
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
            for max_shard_rows in (None, 157):
                merged = fold(views, workers=2, max_shard_rows=max_shard_rows)
                assert partial_states_identical(serial, merged)

    def test_online_day_inside_a_thread(
        self, observatory, telescope, no_processes
    ):
        views = list(observatory.day(0).ixp_views.values())

        def run(workers):
            online = OnlineMetaTelescope(
                telescope=telescope,
                window_days=2,
                min_stable_days=1,
                use_spoofing_tolerance=False,
                workers=workers,
            )
            online.update(0, views)
            return online

        result, errors = [], []

        def work():
            try:
                result.append(run(2))
            except Exception as error:  # surfaced below
                errors.append(error)

        thread = threading.Thread(target=work)
        thread.start()
        thread.join(timeout=120)
        assert not thread.is_alive()
        assert not errors, errors
        (parallel_run,) = result
        np.testing.assert_array_equal(
            run(None).current_prefixes(), parallel_run.current_prefixes()
        )
        assert parallel_run.last_run_context().events(["worker"])


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
        self, tables, workers, kernel, max_shard_rows
    ):
        """Threads switched every 10 µs, any worker count and row
        split, under either kernel and family, fold what serial does."""
        views = [
            VantageDayView(f"V{index}", index % 2, table, 1.0 + index % 2)
            for index, table in enumerate(tables)
        ]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            merged = fold(
                views, workers=workers, kernel=kernel,
                max_shard_rows=max_shard_rows,
            )
        finally:
            sys.setswitchinterval(previous)
        assert partial_states_identical(fold(views, kernel=kernel), merged)


class TestSharding:
    def test_deterministic(self, multi_day):
        first = shard_views(multi_day, 4)
        second = shard_views(multi_day, 4)
        assert first == second

    def test_every_row_exactly_once(self, multi_day):
        buckets = shard_views(multi_day, 5, max_shard_rows=100)
        seen: dict[int, list[tuple[int, int]]] = {}
        for bucket in buckets:
            for index, start, stop in bucket:
                seen.setdefault(index, []).append((start, stop))
        for index, view in enumerate(multi_day):
            ranges = sorted(seen[index])
            assert ranges[0][0] == 0
            assert ranges[-1][1] == len(view.flows)
            for (_, stop), (start, _) in zip(ranges, ranges[1:]):
                assert stop == start  # contiguous, no overlap, no gap

    def test_balance(self, multi_day):
        buckets = shard_views(multi_day, 4)
        loads = [
            sum(stop - start for _, start, stop in bucket)
            for bucket in buckets
        ]
        total = sum(len(view.flows) for view in multi_day)
        # LPT with shards capped at total/workers keeps buckets within
        # 2x of the ideal split.
        assert max(loads) <= 2 * (total / len(buckets))

    def test_rejects_bad_arguments(self, multi_day):
        with pytest.raises(ValueError, match="workers"):
            shard_views(multi_day, 0)
        with pytest.raises(ValueError, match="max_shard_rows"):
            shard_views(multi_day, 2, max_shard_rows=0)


class TestTreeMerge:
    def test_any_grouping_identical(self, multi_day):
        flat = fold([multi_day[0]])
        for view in multi_day[1:]:
            flat.merge(fold([view]))
        tree = tree_merge([fold([view]) for view in multi_day])
        assert partial_states_identical(flat, tree)

    def test_shard_order_invariant(self, multi_day):
        forward = tree_merge([fold([view]) for view in multi_day])
        backward = tree_merge([fold([view]) for view in reversed(multi_day)])
        assert partial_states_identical(forward, backward)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            tree_merge([])


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

    def test_online_workers_identical(self, world, observatory, telescope):
        def run(workers):
            online = OnlineMetaTelescope(
                telescope=telescope,
                window_days=2,
                min_stable_days=1,
                use_spoofing_tolerance=False,
                workers=workers,
            )
            for day in range(2):
                views = list(observatory.day(day).ixp_views.values())
                online.update(day, views)
            return online

        serial = run(None)
        parallel = run(2)
        np.testing.assert_array_equal(
            serial.current_prefixes(), parallel.current_prefixes()
        )
        stages = [
            event.name
            for event in parallel.last_run_context().events(["worker"])
        ]
        assert any(stage.startswith("fanout[") for stage in stages)


class TestChunkingKnobs:
    def test_adaptive_chunk_rows(self):
        assert adaptive_chunk_rows(0) is None
        assert adaptive_chunk_rows(8192) is None
        assert adaptive_chunk_rows(80_000) == 10_000
        assert adaptive_chunk_rows(10**9) == 1 << 18  # ceiling

    def test_resolve_chunk_size(self):
        assert resolve_chunk_size(None, 10**6) is None
        assert resolve_chunk_size(4096, 10**6) == 4096
        assert resolve_chunk_size(AUTO_CHUNK, 80_000) == 10_000
        with pytest.raises(ValueError, match="auto"):
            resolve_chunk_size("bogus", 10**6)

    def test_auto_chunking_identical(self, multi_day, serial):
        auto = fold(multi_day, chunk_size=AUTO_CHUNK)
        assert partial_states_identical(serial, auto)

    def test_chunked_squashes_pending_parts(self, multi_day):
        """A chunk-fed accumulator never carries a day's chunk log past
        the day: every family ends the day as one part."""
        accumulator = fold(multi_day, chunk_size=31)
        for sums in families_of(accumulator):
            assert len(sums._parts) <= 1


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

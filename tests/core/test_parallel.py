"""Bit-identity and plumbing of the parallel inference engine.

The contract of :mod:`repro.core.parallel`: fanning the aggregation out
over any number of workers — any shard order, any merge grouping, the
compact wire form in between — classifies **bit-identically** to the
serial fold.  These tests pin that contract on seeded worlds, random
flow tables, and fault-injected inputs, and cover the satellites that
ride along (adaptive chunking, compaction knob, routing-table interval
cache).
"""

import multiprocessing
import os
import signal
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.accum import (
    AUTO_CHUNK,
    DEFAULT_COMPACT_EVERY,
    PrefixAccumulator,
    adaptive_chunk_rows,
    resolve_chunk_size,
)
from repro.core import parallel
from repro.core.engine import ExecutionPlanner, RunContext, default_workers
from repro.core.metatelescope import MetaTelescope
from repro.core.online import OnlineMetaTelescope
from repro.core.parallel import (
    partial_states_identical,
    shard_views,
    tree_merge,
)
from repro.core.pipeline import PipelineConfig, run_pipeline_accumulated
from repro.faults import FaultPlan, standard_injector
from repro.net.trie import PrefixTrie
from repro.traffic.flows import FlowTable
from repro.vantage.sampling import VantageDayView

from _factories import fold
from test_accumulator import assert_identical
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


def pool_modes(context: RunContext) -> set[str]:
    """Which pool flavour(s) folded, from the context's worker events."""
    return {event.meta["mode"] for event in context.events(["worker"])}


class TestParallelEqualsSerial:
    @pytest.mark.parametrize("workers", [2, 3, 4, 8])
    def test_any_worker_count_identical(self, multi_day, serial, workers):
        context = RunContext()
        merged = fold(multi_day, workers=workers, context=context)
        assert partial_states_identical(serial, merged)
        assert pool_modes(context) <= {"fork", "spawn"}
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
            assert pool_modes(context) <= {"fork", "spawn"}

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


class TestGracefulPoolExit:
    def test_one_shot_folds_finish_under_a_python_sigterm_handler(
        self, multi_day
    ):
        """A forked worker inherits the embedding process's Python-level
        SIGTERM handler; ``Pool.terminate()`` then parks it in a lock
        where the handler never runs and the parent's ``join()`` hangs.
        The pools are left through ``close()`` instead, so 40 one-shot
        fan-out pools must finish well inside the watchdog."""
        owner = os.getpid()

        def on_sigterm(signum, frame):  # what an operator wrapper installs
            if os.getpid() == owner:
                sys.exit(143)
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)

        def on_alarm(signum, frame):
            raise TimeoutError("a one-shot worker pool never exited")

        views = multi_day[:4]
        expected = fold(views)

        before = set(multiprocessing.active_children())
        previous = {
            signal.SIGTERM: signal.signal(signal.SIGTERM, on_sigterm),
            signal.SIGALRM: signal.signal(signal.SIGALRM, on_alarm),
        }
        signal.alarm(120)
        try:
            for _ in range(40):
                context = RunContext()
                merged = fold(views, workers=2, context=context)
                assert pool_modes(context) <= {"fork", "spawn"}
                assert partial_states_identical(expected, merged)
        finally:
            signal.alarm(0)
            for signum, handler in previous.items():
                signal.signal(signum, handler)
            leftover = set(multiprocessing.active_children()) - before
            for child in leftover:  # only a failed run leaves any
                child.kill()
                child.join(5)
        assert not leftover


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
        """A pool worker folds what the plan says: each shard in the
        chunk rows the plan resolved for its *view* (not re-resolved
        against the smaller shard), into an accumulator with the
        default compaction cadence."""
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
            built.append(self.compact_every)

        monkeypatch.setattr(PrefixAccumulator, "__init__", spy)
        monkeypatch.setattr(parallel, "_FORK_WORK", (plan, [view], frozenset()))
        results = [parallel._fold_fork_bucket(bucket) for bucket in plan.shards]
        monkeypatch.undo()

        assert asked == [spec.chunk_rows] * len(shards)
        assert built == [DEFAULT_COMPACT_EVERY] * len(plan.shards)
        partials = [
            PrefixAccumulator.from_state(state) for state, *_ in results
        ]
        assert partial_states_identical(
            fold([VantageDayView("V", 0, flows)]), tree_merge(partials)
        )


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


class TestWireState:
    def test_round_trip(self, multi_day, routing, telescope):
        accumulator = fold(multi_day)
        restored = PrefixAccumulator.from_state(accumulator.to_state())
        assert partial_states_identical(accumulator, restored)
        assert restored.days() == accumulator.days()
        assert_identical(
            run_pipeline_accumulated(accumulator, routing, telescope.config),
            run_pipeline_accumulated(restored, routing, telescope.config),
        )

    def test_round_trip_under_fault_injection(self, multi_day):
        plan = FaultPlan(seed=11)
        for name in ("truncate", "duplicate", "corrupt", "missample"):
            plan.add(standard_injector(name, days=frozenset({0, 2})))
        faulted = []
        for day in range(3):
            day_views = [view for view in multi_day if view.day == day]
            faulted.extend(plan.apply(day, day_views).views)
        accumulator = fold(faulted, chunk_size=83)
        restored = PrefixAccumulator.from_state(accumulator.to_state())
        assert partial_states_identical(accumulator, restored)

    def test_round_trip_preserves_ignore_set(self, multi_day):
        accumulator = fold(
            multi_day, ignore_sources_from_asns=frozenset({1, 9})
        )
        restored = PrefixAccumulator.from_state(accumulator.to_state())
        assert restored.ignore_sources_from_asns == frozenset({1, 9})

    def test_empty_round_trip(self):
        accumulator = PrefixAccumulator()
        accumulator.observe("V", 4)
        restored = PrefixAccumulator.from_state(accumulator.to_state())
        assert restored.days() == [4]
        assert partial_states_identical(accumulator, restored)

    def test_restored_still_mergeable(self, multi_day):
        half_a = fold(multi_day[: len(multi_day) // 2])
        half_b = fold(multi_day[len(multi_day) // 2 :])
        restored = PrefixAccumulator.from_state(half_a.to_state())
        restored.merge(half_b)
        assert partial_states_identical(
            fold(multi_day), restored
        )

    def test_version_checked(self):
        state = PrefixAccumulator().to_state()
        state["version"] = 999
        with pytest.raises(ValueError, match="version"):
            PrefixAccumulator.from_state(state)

    @given(flow_tables())
    @settings(max_examples=25, deadline=None)
    def test_random_tables_round_trip(self, flows):
        view = VantageDayView(vantage="V", day=0, flows=flows)
        accumulator = fold([view], chunk_size=5)
        restored = PrefixAccumulator.from_state(accumulator.to_state())
        assert partial_states_identical(accumulator, restored)


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
            for event in context.events(["worker", "ipc", "merge"])
        ]
        assert "merge" in stages and "ipc" in stages
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

    def test_compact_every_knob_identical(self, multi_day, serial):
        for compact_every in (2, 1000):
            accumulator = PrefixAccumulator(compact_every=compact_every)
            for view in multi_day:
                accumulator.update_view(view, 17)
            assert partial_states_identical(serial, accumulator)

    def test_compact_every_validated(self):
        with pytest.raises(ValueError, match="compact_every"):
            PrefixAccumulator(compact_every=1)

    def test_chunked_squashes_pending_parts(self, multi_day):
        """A chunk-fed accumulator never carries a view's chunk log
        past the view boundary (two-tier invariant: base + squashed)."""
        accumulator = fold(multi_day, chunk_size=31)
        for sums in (accumulator._dst_ip_sums, accumulator._src_ip_sums):
            assert len(sums._parts) <= 2
        accumulator.compact()
        for sums in (accumulator._dst_ip_sums, accumulator._src_ip_sums):
            assert len(sums._parts) <= 1


class TestRoutingTableCache:
    def test_routed_mask_cached_and_correct(self, routing):
        blocks = np.arange(0, 1 << 16, 7, dtype=np.int64)
        first = routing.routed_mask(blocks)
        assert routing._interval_cache is not None
        starts_before = routing._interval_cache[0]
        second = routing.routed_mask(blocks)
        assert routing._interval_cache[0] is starts_before
        np.testing.assert_array_equal(first, second)

    def test_matches_trie(self, routing):
        # Every block inside a stored prefix no longer than a block,
        # checked prefix by prefix rather than through the interval table.
        trie = PrefixTrie(family=routing.family)
        for announcement in routing.announcements:
            trie.insert(announcement.prefix, announcement.origin_asn)
        blocks = np.arange(0, 1 << 16, 13, dtype=np.int64)
        expected = np.zeros(blocks.shape, dtype=bool)
        for prefix, _ in trie.items():
            if prefix.length <= routing.family.block_prefix_length:
                first = prefix.first_block()
                expected |= (blocks >= first) & (blocks < first + prefix.num_blocks())
        np.testing.assert_array_equal(routing.routed_mask(blocks), expected)

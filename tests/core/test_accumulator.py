"""Streaming-equivalence properties of the prefix accumulator.

The contract of the streaming refactor: folding views into a
:class:`~repro.core.accum.PrefixAccumulator` chunk by chunk — at *any*
chunk size, in any merge grouping, batch or incremental — classifies
identically to the facade's one-shot batch inference: bit-identically
at integer sampling factors, verdict-identically at non-integer ones.
These tests pin that contract on a seeded multi-day world, at
non-integer factors, under fault injection, and with the per-vantage
spoofing tolerance engaged.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.accum import PrefixAccumulator
from repro.core.metatelescope import MetaTelescope
from repro.core.parallel import partial_states_identical
from repro.core.pipeline import PipelineConfig, run_pipeline_accumulated
from repro.faults import FaultPlan, standard_injector
from repro.vantage.sampling import VantageDayView
from repro.world.ipv6 import ipv6_day_view, micro_ipv6_world

from _factories import NATIVE, families_of, fold, same
from test_pipeline_properties import ROUTING, flow_tables


def assert_identical(a, b):
    """Two pipeline results agree on every classification output."""
    np.testing.assert_array_equal(a.dark_blocks, b.dark_blocks)
    np.testing.assert_array_equal(a.unclean_blocks, b.unclean_blocks)
    np.testing.assert_array_equal(a.gray_blocks, b.gray_blocks)
    np.testing.assert_array_equal(
        a.volume_filtered_blocks, b.volume_filtered_blocks
    )
    assert a.funnel == b.funnel
    assert a.applied_tolerances == b.applied_tolerances


@pytest.fixture(scope="module")
def multi_day(observatory):
    """Three days of every IXP's views over the micro world."""
    return observatory.all_ixp_views(num_days=3)


@pytest.fixture(scope="module")
def telescope(world):
    return MetaTelescope.for_world(world)


@pytest.fixture(scope="module")
def routing(telescope, multi_day):
    return telescope.routing_for_days([view.day for view in multi_day])


class TestChunkedEqualsBatch:
    """The batch side is the facade's inference, one fold of whole
    days; the chunked side folds the same views in bounded batches."""

    @pytest.mark.parametrize("chunk_size", [1, 97, None])
    def test_world_classification_identical(
        self, multi_day, routing, telescope, chunk_size
    ):
        batch = telescope.infer(multi_day, refine=False).pipeline
        chunked = run_pipeline_accumulated(
            fold(multi_day, chunk_size=chunk_size), routing, telescope.config
        )
        assert_identical(batch, chunked)
        assert batch.num_dark() > 0  # a vacuous world proves nothing

    @pytest.mark.parametrize("chunk_size", [1, 97, None])
    def test_non_integer_factors_classify_identically(
        self, multi_day, routing, telescope, chunk_size
    ):
        """Views re-weighted by non-integer sampling factors (7.3 and
        1/0.3).  A scaled estimate's float sums depend on their order in
        the last bit, so this pair is verdict-identical, not
        bit-identical: every class, the funnel and the tolerances agree,
        while a sum may differ by an ULP."""
        scaled = [
            view.with_flows(view.flows, sampling_factor=(7.3, 1 / 0.3)[i % 2])
            for i, view in enumerate(multi_day)
        ]
        batch = telescope.infer(scaled, refine=False).pipeline
        chunked = run_pipeline_accumulated(
            fold(scaled, chunk_size=chunk_size), routing, telescope.config
        )
        assert_identical(batch, chunked)
        assert batch.num_dark() > 0

    def test_spoofing_tolerance_identical(self, multi_day, telescope):
        batch = telescope.infer(
            multi_day, use_spoofing_tolerance=True, refine=False
        )
        chunked = telescope.infer(
            multi_day, use_spoofing_tolerance=True, refine=False, chunk_size=97
        )
        assert_identical(batch.pipeline, chunked.pipeline)
        assert any(
            tolerance > 0
            for tolerance in batch.pipeline.applied_tolerances.values()
        ), "tolerance never engaged; the equivalence was not exercised"

    def test_identical_under_fault_injection(self, multi_day, routing, telescope):
        plan = FaultPlan(seed=3)
        for name in ("truncate", "duplicate", "corrupt", "missample"):
            plan.add(standard_injector(name, days=frozenset({1})))
        faulted = []
        for day in range(3):
            day_views = [view for view in multi_day if view.day == day]
            faulted.extend(plan.apply(day, day_views).views)
        batch = telescope.infer(faulted, refine=False).pipeline
        chunked = run_pipeline_accumulated(
            fold(faulted, chunk_size=61), routing, telescope.config
        )
        assert_identical(batch, chunked)

    def test_empty_view_still_counts(self, multi_day, telescope):
        """An empty view must claim a tolerance slot and a volume day."""
        from repro.traffic.flows import FlowTable

        silent = VantageDayView(
            vantage="SILENT", day=9, flows=FlowTable.empty()
        )
        batch = telescope.infer(multi_day + [silent], refine=False).pipeline
        chunked = telescope.infer(
            multi_day + [silent], refine=False, chunk_size=50
        ).pipeline
        assert "SILENT" in batch.applied_tolerances
        assert_identical(batch, chunked)


class TestMerge:
    def test_merge_grouping_invariant(self, multi_day, routing, telescope):
        """Any associativity grouping of partials classifies the same."""
        partials = [fold([view], chunk_size=53) for view in multi_day]

        left = partials[0].copy()
        for partial in partials[1:]:
            left.merge(partial)

        right = partials[-1].copy()
        for partial in reversed(partials[:-1]):
            right.merge(partial)

        mid = len(partials) // 2
        first, second = partials[0].copy(), partials[mid].copy()
        for partial in partials[1:mid]:
            first.merge(partial)
        for partial in partials[mid + 1 :]:
            second.merge(partial)
        paired = first.merge(second)

        results = [
            run_pipeline_accumulated(acc, routing, telescope.config)
            for acc in (left, right, paired)
        ]
        assert_identical(results[0], results[1])
        assert_identical(results[0], results[2])

    def test_merge_leaves_other_untouched(self, multi_day):
        a = fold(multi_day[:2])
        b = fold(multi_day[2:4])
        before = b.copy()
        a.merge(b)
        assert partial_states_identical(b, before)
        assert partial_states_identical(a, fold(multi_day[:4]))

    def test_merged_is_a_fresh_accumulator(self, multi_day):
        partials = [fold([view]) for view in multi_day[:3]]
        before = [partial.copy() for partial in partials]
        merged = PrefixAccumulator.merged(partials)
        assert all(merged is not partial for partial in partials)
        assert partial_states_identical(merged, fold(multi_day[:3]))
        for partial, unchanged in zip(partials, before):
            assert partial_states_identical(partial, unchanged)

    def test_mismatched_ignore_sets_refuse_to_merge(self):
        with pytest.raises(ValueError, match="ignored-sender"):
            PrefixAccumulator().merge(
                PrefixAccumulator(ignore_sources_from_asns=frozenset({7}))
            )

    def test_config_ignore_set_mismatch_rejected(self, multi_day, routing):
        accumulator = fold(multi_day)
        with pytest.raises(ValueError, match="ignore"):
            run_pipeline_accumulated(
                accumulator,
                routing,
                PipelineConfig(ignore_sources_from_asns=frozenset({42})),
            )


class TestProperties:
    @given(flow_tables(), st.integers(min_value=1, max_value=64))
    @settings(max_examples=40, deadline=None)
    def test_any_chunk_size_matches_batch(self, flows, chunk_size):
        view = VantageDayView(vantage="V", day=0, flows=flows)
        batch = run_pipeline_accumulated(fold([view]), ROUTING)
        chunked = run_pipeline_accumulated(
            fold([view], chunk_size=chunk_size), ROUTING
        )
        assert_identical(batch, chunked)

    @given(flow_tables(), flow_tables())
    @settings(max_examples=40, deadline=None)
    def test_update_commutes_with_merge(self, flows_a, flows_b):
        """update(a); update(b) == merge of two single-view partials."""
        views = [
            VantageDayView(vantage="A", day=0, flows=flows_a),
            VantageDayView(vantage="B", day=1, flows=flows_b),
        ]
        together = fold(views)
        merged = fold(views[:1]).merge(fold(views[1:]))
        assert_identical(
            run_pipeline_accumulated(together, ROUTING),
            run_pipeline_accumulated(merged, ROUTING),
        )


    @given(
        st.lists(flow_tables(), min_size=1, max_size=4),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_days_folded_together_equal_day_partials_merged(
        self, day_flows, random
    ):
        """One accumulator folding every day equals per-day partials
        merged in any order — the per-day source key sets included."""
        views = [
            VantageDayView(vantage=vantage, day=day, flows=flows)
            for day, flows in enumerate(day_flows)
            for vantage in ("A", "B")
        ]
        together = fold(views)
        partials = [fold(views[i:i + 2]) for i in range(0, len(views), 2)]
        random.shuffle(partials)
        merged = partials[0].copy()
        for partial in partials[1:]:
            merged.merge(partial)
        assert partial_states_identical(together, merged)
        assert merged.days() == list(range(len(day_flows)))
        for ours, theirs in zip(
            together.finalize().src_ips_by_day,
            merged.finalize().src_ips_by_day,
            strict=True,
        ):
            np.testing.assert_array_equal(ours, theirs)


class TestAccumulatorState:
    def test_introspection(self, multi_day):
        accumulator = fold(multi_day)
        assert accumulator.days() == [0, 1, 2]
        assert set(accumulator.vantage_source_blocks()) == {
            view.vantage for view in multi_day
        }
        assert not accumulator.is_empty()
        assert len(accumulator.observed_blocks()) > 0

    def test_finalize_does_not_consume(self, multi_day, routing, telescope):
        accumulator = fold(multi_day[:3])
        first = run_pipeline_accumulated(accumulator, routing, telescope.config)
        again = run_pipeline_accumulated(accumulator, routing, telescope.config)
        assert_identical(first, again)
        accumulator.update_day(multi_day[3].day, [multi_day[3]])  # still ingestible
        assert partial_states_identical(accumulator, fold(multi_day[:4]))

    def test_empty_accumulator_rejected(self, routing):
        with pytest.raises(ValueError, match="at least one"):
            run_pipeline_accumulated(PrefixAccumulator(), routing)

    def test_copy_is_independent(self, multi_day):
        original = fold(multi_day[:2])
        duplicate = original.copy()
        duplicate.update_day(multi_day[2].day, [multi_day[2]])
        assert partial_states_identical(original, fold(multi_day[:2]))
        assert not partial_states_identical(original, duplicate)


class TestObservedBlocks:
    """``observed_blocks`` keeps the run heads of the sorted-unique
    keys' blocks; ``np.unique`` of those blocks is the plain reading."""

    @staticmethod
    def unique_blocks(accumulator):
        keys, _ = accumulator._dst_ip_sums.compacted()
        return np.unique(accumulator.address_family.block_of(keys))

    def test_ipv4_matches_unique(self, multi_day):
        accumulator = fold(multi_day)
        same(accumulator.observed_blocks(), self.unique_blocks(accumulator))

    def test_ipv6_matches_unique(self):
        world = micro_ipv6_world(seed=7)
        accumulator = fold([ipv6_day_view(world, day) for day in range(2)])
        assert accumulator.address_family.name == "ipv6"
        observed = accumulator.observed_blocks()
        same(observed, self.unique_blocks(accumulator))
        # Many /64 keys share a /48 site: the runs are not all of length 1.
        assert len(observed) < len(accumulator._dst_ip_sums.compacted()[0])

    def test_empty_accumulator_observes_nothing(self):
        same(PrefixAccumulator().observed_blocks(), np.empty(0, np.int64))


class TestKeyedSumsShortCircuit:
    """Already-compacted state must cost nothing to re-compact."""

    def test_compacted_single_sorted_part_is_no_copy(self):
        from repro.core.accum import _KeyedSums
        from repro.core.kernels import get_kernel

        family = _KeyedSums(1, get_kernel("numpy"))
        keys = np.array([3, 5, 9], dtype=np.int64)
        sums = np.array([1.0, 2.0, 3.0])
        family.add(keys, sums)
        out_keys, (out_sums,) = family.compacted()
        # The short-circuit returns the stored arrays themselves — any
        # copy here would put an O(total keys) tax on every chunk of a
        # long stream (compacted() runs at the end of every such day).
        assert out_keys is keys
        assert out_sums is sums
        again_keys, (again_sums,) = family.compacted()
        assert again_keys is keys
        assert again_sums is sums


def strictly_ascending(keys):
    return bool(np.all(keys[1:] > keys[:-1]))


class TestSortedUniqueParts:
    """Every part of every column family ascends strictly: compaction is
    one sorted-part merge and nothing regroups an unsorted part."""

    @pytest.mark.parametrize("ignoring", [False, True])
    @pytest.mark.parametrize("kernel", ["numpy", NATIVE])
    def test_every_part_ascends_strictly(
        self, multi_day, kernel, ignoring, monkeypatch
    ):
        from repro.core.accum import _KeyedSums

        ignored = frozenset()
        if ignoring:
            # The most frequent sender AS of the first view: the filter
            # drops rows of every IXP.
            asns, counts = np.unique(
                multi_day[0].flows.sender_asn, return_counts=True
            )
            ignored = frozenset({int(asns[np.argmax(counts)])})
        added = []
        add = _KeyedSums.add

        def recording_add(self, keys, *values):
            added.append(np.asarray(keys))
            add(self, keys, *values)

        monkeypatch.setattr(_KeyedSums, "add", recording_add)
        partials = [
            fold(multi_day, ignored, kernel=kernel, chunk_size=chunk_size)
            for chunk_size in (None, 97)
        ]
        # Before the merge compacts them: a multi-day unchunked fold
        # still holds one part per day in its cross-day families.
        assert max(len(f._parts) for f in families_of(partials[0])) > 1
        merged = PrefixAccumulator(ignored, kernel=kernel)
        for partial in partials:
            merged.merge(partial)
        assert len(added) > 100
        assert all(strictly_ascending(keys) for keys in added)
        for accumulator in (*partials, merged):
            for family in families_of(accumulator):
                for keys, _ in family._parts:
                    assert strictly_ascending(keys)
        if ignoring:
            state = merged.to_state()["src_by_vantage"]
            assert any(
                not np.array_equal(filtered, raw)
                for _, filtered, raw in state.values()
            )

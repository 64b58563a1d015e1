"""Tests for federated meta-telescopes (Section 9 extension)."""

import numpy as np
import pytest

from repro.core.federation import (
    FederatedResult,
    MarkingRegistry,
    OperatorReport,
    QuorumError,
    federate,
    validate_reports,
)

from _factories import fold


def report(operator, dark, observed=None):
    dark = np.asarray(dark, dtype=np.int64)
    if observed is None:
        observed = dark
    return OperatorReport(
        operator=operator,
        dark_blocks=dark,
        observed_blocks=np.asarray(observed, dtype=np.int64),
    )


class TestVoting:
    def test_unanimous_block_included(self):
        result = federate([report("a", [1, 2]), report("b", [1])])
        assert 1 in result.prefixes

    def test_majority_vote(self):
        # Block 2: seen by 3 operators, inferred dark by 2 -> in (2/3).
        members = [
            report("a", [2], observed=[2]),
            report("b", [2], observed=[2]),
            report("c", [], observed=[2]),
        ]
        result = federate(members, min_vote_share=0.5)
        assert 2 in result.prefixes

    def test_minority_vote_excluded(self):
        members = [
            report("a", [2], observed=[2]),
            report("b", [], observed=[2]),
            report("c", [], observed=[2]),
        ]
        result = federate(members, min_vote_share=0.5)
        assert 2 not in result.prefixes

    def test_abstentions_do_not_veto(self):
        # Only one member ever observed block 5; its single vote wins.
        members = [
            report("a", [5], observed=[5]),
            report("b", [], observed=[]),
            report("c", [], observed=[]),
        ]
        result = federate(members)
        assert 5 in result.prefixes

    def test_vote_counts_reported(self):
        result = federate([report("a", [7]), report("b", [7])])
        assert result.votes_for[7] == 2

    def test_requires_members(self):
        with pytest.raises(ValueError):
            federate([])

    def test_validates_share(self):
        with pytest.raises(ValueError):
            federate([report("a", [1])], min_vote_share=0.0)

    def test_stricter_share_shrinks(self):
        members = [
            report("a", [1, 2], observed=[1, 2]),
            report("b", [1], observed=[1, 2]),
        ]
        loose = federate(members, min_vote_share=0.5)
        strict = federate(members, min_vote_share=1.0)
        assert len(strict.prefixes) <= len(loose.prefixes)
        assert 1 in strict.prefixes
        assert 2 not in strict.prefixes


class TestVotingEdgeCases:
    def test_single_member_federation(self):
        result = federate([report("solo", [1, 2, 3])])
        assert result.prefixes.tolist() == [1, 2, 3]
        assert result.votes_for == {1: 1, 2: 1, 3: 1}

    def test_member_with_empty_dark_blocks(self):
        members = [
            report("a", [4], observed=[4]),
            report("b", [], observed=[4]),
        ]
        result = federate(members, min_vote_share=0.6)
        # b observed 4 and voted "not dark": 1 of 2 observers -> out.
        assert 4 not in result.prefixes

    def test_all_members_empty(self):
        result = federate([report("a", []), report("b", [])])
        assert result.num_prefixes() == 0

    def test_vote_share_exactly_at_threshold_included(self):
        # Block 9: 2 observers, 1 vote -> share is exactly 0.5.
        members = [
            report("a", [9], observed=[9]),
            report("b", [], observed=[9]),
        ]
        result = federate(members, min_vote_share=0.5)
        assert 9 in result.prefixes

    def test_registry_marks_overlapping_voted_blocks(self):
        registry = MarkingRegistry()
        registry.mark(np.array([1, 2]), owner="op-a")
        result = federate(
            [report("a", [1]), report("b", [1])], registry=registry
        )
        # Block 1 is both voted and marked; the union must not double it.
        assert result.prefixes.tolist() == [1, 2]
        assert 1 in result.voted_blocks
        assert 1 in result.marked_blocks


class TestSanityChecking:
    def test_fabricated_report_excluded(self):
        # c claims dark space it never observed: an impossible report.
        members = [
            report("a", [1], observed=[1, 2]),
            report("b", [1], observed=[1, 2]),
            report("c", [5, 6, 7], observed=[]),
        ]
        result = federate(members)
        assert result.excluded_members() == ("c",)
        assert 5 not in result.prefixes
        assert 1 in result.prefixes

    def test_small_foreign_share_tolerated(self):
        # One sloppy extra block in 20 stays within tolerance.
        dark = list(range(20))
        members = [report("a", dark, observed=dark[:-1])]
        result = federate(members)
        assert result.excluded_members() == ()
        assert len(result.prefixes) == 20

    def test_oversized_report_down_weighted(self):
        # b's dark list dwarfs its peers (spoofing pollution): its lone
        # "dark" vote on block 1 no longer outvotes a's clean "active".
        big = list(range(100, 200))
        members = [
            report("a", [], observed=[1]),
            report("b", [1] + big, observed=[1] + big),
            report("c", [2], observed=[2]),
            report("d", [2], observed=[2]),
        ]
        validations = {
            v.operator: v for v in validate_reports(members, max_size_ratio=20.0)
        }
        assert validations["b"].weight == 0.5
        result = federate(members)
        assert 1 not in result.prefixes
        assert federate(members, validate=False).prefixes.tolist()[0] == 1

    def test_quorum_enforced(self):
        fabricated = [report("x", [1, 2, 3], observed=[])]
        with pytest.raises(QuorumError):
            federate(fabricated)
        healthy = [report("a", [1]), report("b", [1])]
        with pytest.raises(QuorumError):
            federate(healthy, min_quorum=3)
        assert federate(healthy, min_quorum=2).num_prefixes() == 1

    def test_min_quorum_validated(self):
        with pytest.raises(ValueError):
            federate([report("a", [1])], min_quorum=0)

    def test_validations_reported_for_all_members(self):
        members = [report("a", [1]), report("b", [1], observed=[])]
        result = federate(members)
        assert [v.operator for v in result.validations] == ["a", "b"]
        assert result.validations[0].weight == 1.0
        assert result.validations[1].excluded()
        assert result.validations[1].reasons


class TestMarkingRegistry:
    def test_mark_and_resolve(self):
        registry = MarkingRegistry()
        registry.mark(np.array([10, 11]), owner="op-a")
        assert registry.owner_of(10) == "op-a"
        assert registry.owner_of(99) is None
        assert len(registry) == 2

    def test_unmark(self):
        registry = MarkingRegistry()
        registry.mark(np.array([10]), owner="op-a")
        registry.unmark(np.array([10, 99]))
        assert len(registry) == 0

    def test_marked_blocks_sorted(self):
        registry = MarkingRegistry()
        registry.mark(np.array([30, 10]), owner="op-a")
        assert registry.marked_blocks().tolist() == [10, 30]

    def test_marks_join_federation(self):
        registry = MarkingRegistry()
        registry.mark(np.array([42]), owner="op-a")
        result = federate([report("a", [1])], registry=registry)
        assert 42 in result.prefixes
        assert 42 in result.marked_blocks
        assert 1 in result.voted_blocks

    def test_result_shape(self):
        result = federate([report("a", [1])])
        assert isinstance(result, FederatedResult)
        assert result.num_prefixes() == 1


class TestFromResult:
    def test_from_result(self, integration_world, integration_observatory):
        from repro.core import MetaTelescope
        from repro.core.pipeline import PipelineConfig

        world = integration_world
        telescope = MetaTelescope(
            collector=world.collector,
            unrouted_baseline=world.unrouted_baseline_blocks,
            config=PipelineConfig(
                volume_threshold_pkts_day=world.config.volume_threshold_pkts_day
            ),
        )
        accumulator = telescope.accumulate(
            integration_observatory.ixp_views("CE1", num_days=1)
        )
        result = telescope.infer_accumulated(
            accumulator, use_spoofing_tolerance=True
        )
        observed = accumulator.observed_blocks()
        member = OperatorReport.from_result("CE1", result, observed)
        assert member.operator == "CE1"
        assert len(member.dark_blocks) == result.num_prefixes()

    def test_federating_vantages_reduces_false_positives(
        self, integration_world, integration_observatory
    ):
        from repro.core import MetaTelescope
        from repro.core.evaluation import confusion_against_truth
        from repro.core.pipeline import PipelineConfig

        world = integration_world
        telescope = MetaTelescope(
            collector=world.collector,
            unrouted_baseline=world.unrouted_baseline_blocks,
            config=PipelineConfig(
                volume_threshold_pkts_day=world.config.volume_threshold_pkts_day
            ),
        )
        reports = []
        for code in ("CE1", "NA1", "SE2"):
            accumulator = telescope.accumulate(
                integration_observatory.ixp_views(code, num_days=1)
            )
            result = telescope.infer_accumulated(
                accumulator, use_spoofing_tolerance=True
            )
            reports.append(
                OperatorReport.from_result(
                    code, result, accumulator.observed_blocks()
                )
            )
        solo = confusion_against_truth(reports[0].dark_blocks, world.index)
        federated = federate(reports, min_vote_share=0.66)
        joint = confusion_against_truth(federated.prefixes, world.index)
        assert (
            joint.false_positive_rate_of_inferred()
            <= solo.false_positive_rate_of_inferred() + 0.02
        )


class TestPartialAccumulators:
    """Members may send mergeable partial aggregates instead of reports."""

    def _telescope(self, world):
        from repro.core import MetaTelescope
        from repro.core.pipeline import PipelineConfig

        return MetaTelescope(
            collector=world.collector,
            config=PipelineConfig(
                avg_size_threshold=world.config.avg_size_threshold,
                volume_threshold_pkts_day=world.config.volume_threshold_pkts_day,
            ),
        )

    def test_partials_vote_like_finished_reports(self, world, observatory):
        telescope = self._telescope(world)
        codes = ("CE1", "NA1")
        reports, partials = [], {}
        for code in codes:
            views = observatory.ixp_views(code, num_days=2)
            # One partial accumulator per day, as a member node would
            # stream them; the coordinator merges and classifies.
            partials[code] = [
                fold([view], chunk_size=97) for view in views
            ]
            reports.append(
                OperatorReport.from_accumulator(
                    code, fold(views), telescope
                )
            )
        via_reports = federate(reports, min_vote_share=0.5)
        via_partials = federate(
            [], partials=partials, coordinator=telescope, min_vote_share=0.5
        )
        np.testing.assert_array_equal(
            via_reports.prefixes, via_partials.prefixes
        )

    def test_partials_require_coordinator(self, world, observatory):
        views = observatory.ixp_views("CE1", num_days=1)
        with pytest.raises(ValueError, match="coordinator"):
            federate([], partials={"CE1": [fold(views)]})

    def test_empty_partial_list_rejected(self, world):
        telescope = self._telescope(world)
        with pytest.raises(ValueError, match="no partials"):
            federate([], partials={"CE1": []}, coordinator=telescope)

    def test_from_accumulator_observed_blocks(self, world, observatory):
        telescope = self._telescope(world)
        views = observatory.ixp_views("CE1", num_days=1)
        accumulator = fold(views)
        member = OperatorReport.from_accumulator("CE1", accumulator, telescope)
        np.testing.assert_array_equal(
            member.observed_blocks, accumulator.observed_blocks()
        )
        # dark ⊆ observed: the report passes its own validation.
        validation = validate_reports([member])[0]
        assert not validation.excluded()

"""Tests for federated meta-telescopes (Section 9 extension)."""

import numpy as np
import pytest

from repro.core.accum import PrefixAccumulator
from repro.core.federation import (
    FederatedResult,
    MarkingRegistry,
    OperatorReport,
    QuorumError,
    federate,
    validate_reports,
)

from _factories import fold


def excluded(result):
    """Operators whose votes the sanity checks discarded."""
    return [v.operator for v in result.validations if v.weight == 0.0]


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
        assert excluded(result) == ["c"]
        assert 5 not in result.prefixes
        assert 1 in result.prefixes

    def test_small_foreign_share_tolerated(self):
        # One sloppy extra block in 20 stays within tolerance.
        dark = list(range(20))
        members = [report("a", dark, observed=dark[:-1])]
        result = federate(members)
        assert excluded(result) == []
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
        validations = {v.operator: v for v in validate_reports(members)}
        assert validations["b"].weight == 0.5
        result = federate(members)
        assert 1 not in result.prefixes

    def test_quorum_enforced(self):
        fabricated = [report("x", [1, 2, 3], observed=[])]
        with pytest.raises(QuorumError):
            federate(fabricated)
        # One credible member is enough to stand behind a list.
        assert federate([*fabricated, report("a", [1])]).num_prefixes() == 1

    @pytest.mark.parametrize("forged_first", [True, False])
    def test_repeated_operator_rejected_in_either_order(self, forged_first):
        # A forged report under an honest member's name must neither
        # borrow that member's weight (forged first: its blocks would
        # enter the list) nor cost it its vote (honest first: no
        # credible member would remain).
        forged = report("A", [7, 8, 9], observed=[])
        honest = report("A", [1], observed=[1, 2])
        members = [forged, honest] if forged_first else [honest, forged]
        with pytest.raises(ValueError, match="operator 'A'") as raised:
            federate(members)
        assert not isinstance(raised.value, QuorumError)

    def test_validations_reported_for_all_members(self):
        members = [report("a", [1]), report("b", [1], observed=[])]
        result = federate(members)
        assert [v.operator for v in result.validations] == ["a", "b"]
        assert result.validations[0].weight == 1.0
        assert result.validations[1].weight == 0.0
        assert result.validations[1].reasons


class TestMarkingRegistry:
    def test_mark_and_resolve(self):
        registry = MarkingRegistry()
        registry.mark(np.array([10, 11]), owner="op-a")
        registry.mark(np.array([11]), owner="op-b")
        assert registry.marked_blocks().tolist() == [10, 11]

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
    """A member that streamed its traffic into an accumulator reports
    from it: the dark list it infers and the blocks it observed."""

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

    def _report(self, operator, accumulator, telescope):
        return OperatorReport.from_result(
            operator,
            telescope.infer_accumulated(accumulator),
            accumulator.observed_blocks(),
        )

    def test_partials_vote_like_finished_reports(self, world, observatory):
        telescope = self._telescope(world)
        whole, merged = [], []
        for code in ("CE1", "NA1"):
            views = observatory.ixp_views(code, num_days=2)
            whole.append(self._report(code, fold(views), telescope))
            # One partial per day, as a member node streams them, merged
            # on the member's side before it reports.
            partials = [fold([view], chunk_size=97) for view in views]
            merged.append(
                self._report(
                    code, PrefixAccumulator.merged(partials), telescope
                )
            )
        np.testing.assert_array_equal(
            federate(whole).prefixes, federate(merged).prefixes
        )

    def test_from_accumulator_observed_blocks(self, world, observatory):
        telescope = self._telescope(world)
        accumulator = fold(observatory.ixp_views("CE1", num_days=1))
        member = self._report("CE1", accumulator, telescope)
        np.testing.assert_array_equal(
            member.observed_blocks, accumulator.observed_blocks()
        )
        # dark ⊆ observed: the report passes its own validation.
        validation = validate_reports([member])[0]
        assert validation.weight == 1.0

"""End-to-end integration tests on the small world.

These exercise the same paths as the paper's evaluation: a full
observation campaign, single- and multi-day inference, spoofing
tolerance, telescope coverage, refinement, and the headline analyses.
They assert *shape* properties (orderings, monotone trends), not exact
counts.
"""

import numpy as np
import pytest

from repro.analysis.ports import port_packet_counts, top_ports
from repro.analysis.sampling_study import sampling_sweep
from repro.analysis.variability import daily_series
from repro.core import MetaTelescope
from repro.core.evaluation import confusion_against_truth, telescope_coverage
from repro.world.ground_truth import BlockState


@pytest.fixture(scope="module")
def telescope(integration_world):
    return MetaTelescope.for_world(integration_world)


@pytest.fixture(scope="module")
def day1_result(integration_observatory, telescope):
    views = integration_observatory.all_ixp_views(num_days=1)
    return telescope.infer(views, use_spoofing_tolerance=True)


@pytest.fixture(scope="module")
def week_result(integration_observatory, telescope):
    views = integration_observatory.all_ixp_views(num_days=7)
    return telescope.infer(views, use_spoofing_tolerance=True)


class TestInferenceQuality:
    def test_substantial_dark_space_found(self, day1_result, integration_world):
        truly_dark = len(integration_world.index.truly_dark_blocks())
        assert day1_result.num_prefixes() > truly_dark * 0.15

    def test_low_false_positive_rate(self, day1_result, integration_world):
        confusion = confusion_against_truth(
            day1_result.prefixes, integration_world.index
        )
        assert confusion.false_positive_rate_of_inferred() < 0.08

    def test_week_false_positives_low(self, week_result, integration_world):
        confusion = confusion_against_truth(
            week_result.prefixes, integration_world.index
        )
        assert confusion.false_positive_rate_of_inferred() < 0.08

    def test_funnel_monotone(self, day1_result):
        counts = [c for _, c in day1_result.pipeline.funnel.as_rows()]
        assert counts == sorted(counts, reverse=True)

    def test_gray_dominates_unclean(self, day1_result):
        # Lightly-used space with visible outbound dominates the
        # non-dark classes (the paper's 3.8M graynets).
        assert len(day1_result.pipeline.gray_blocks) > len(
            day1_result.pipeline.unclean_blocks
        )

    def test_classes_disjoint(self, day1_result):
        pipeline = day1_result.pipeline
        dark = set(pipeline.dark_blocks.tolist())
        gray = set(pipeline.gray_blocks.tolist())
        unclean = set(pipeline.unclean_blocks.tolist())
        assert not (dark & gray or dark & unclean or gray & unclean)


class TestTelescopeCoverage:
    def test_tus1_coverage_grows_with_days(
        self, integration_world, day1_result, week_result
    ):
        tus1 = integration_world.telescopes["TUS1"]
        one = telescope_coverage(day1_result.prefixes, tus1, day=0)
        week = telescope_coverage(week_result.prefixes, tus1)
        # At the small scale the week's accumulated spoofed pollution
        # offsets part of the observation gain; substantial coverage
        # must remain on both windows (the paper-scale bench asserts
        # the strict 1d < 7d growth).
        assert week.inferred_inside >= 0.4 * one.inferred_inside
        assert week.coverage() > 0.2
        assert one.coverage() > 0.2

    def test_teu2_blocked_on_day0_by_volume(
        self, integration_world, day1_result
    ):
        teu2 = integration_world.telescopes["TEU2"]
        row = telescope_coverage(day1_result.prefixes, teu2, day=0)
        assert row.inferred_inside == 0
        # and the volume filter is the responsible step
        assert np.isin(
            teu2.blocks, day1_result.pipeline.volume_filtered_blocks
        ).any()

    def test_teu2_recovered_over_week(self, integration_world, week_result):
        teu2 = integration_world.telescopes["TEU2"]
        row = telescope_coverage(week_result.prefixes, teu2)
        assert row.inferred_inside >= 2

    def test_tus1_invisible_at_ce1(
        self, integration_world, integration_observatory, telescope
    ):
        views = integration_observatory.ixp_views("CE1", num_days=1)
        result = telescope.infer(views, use_spoofing_tolerance=True)
        tus1 = integration_world.telescopes["TUS1"]
        assert telescope_coverage(result.prefixes, tus1).inferred_inside == 0


class TestSpoofing:
    def test_spoofing_reduces_weekly_inference(
        self, integration_observatory, telescope
    ):
        views = integration_observatory.all_ixp_views(num_days=7)
        without = telescope.infer(views, use_spoofing_tolerance=False)
        with_tol = telescope.infer(views, use_spoofing_tolerance=True)
        assert with_tol.pipeline.num_dark() > without.pipeline.num_dark()

    def test_cumulative_days_shrink_without_tolerance(
        self, integration_observatory, telescope
    ):
        one = telescope.infer(integration_observatory.all_ixp_views(num_days=1))
        week = telescope.infer(integration_observatory.all_ixp_views(num_days=7))
        assert week.pipeline.num_dark() < one.pipeline.num_dark()

    def test_tolerances_small_integers(
        self, integration_observatory, telescope
    ):
        views = integration_observatory.all_ixp_views(num_days=1)
        result = telescope.infer(views, use_spoofing_tolerance=True)
        values = list(result.pipeline.applied_tolerances.values())
        assert all(0 <= v <= 10 for v in values)
        assert min(values) <= 2


class TestCdnProtection:
    def test_cdn_blocks_never_inferred(self, integration_world, week_result):
        cdn = integration_world.index.blocks_in_state(BlockState.CDN_SINK)
        assert not np.isin(cdn, week_result.prefixes).any()

    def test_cdn_blocks_volume_filtered(self, integration_world, day1_result):
        cdn = integration_world.index.blocks_in_state(BlockState.CDN_SINK)
        filtered = np.isin(cdn, day1_result.pipeline.volume_filtered_blocks)
        assert filtered.mean() > 0.5


class TestAnalyses:
    def test_port23_dominates_captured_traffic(
        self, integration_observatory, telescope, day1_result
    ):
        views = integration_observatory.all_ixp_views(num_days=1)
        captured = telescope.captured_traffic(views, day1_result)
        ranked = top_ports(captured, count=3)
        assert ranked[0] == 23

    def test_telescope_port_rankings_share_core(
        self, integration_observatory
    ):
        day = integration_observatory.day(0)
        tus1 = top_ports(day.telescope_views["TUS1"].flows, count=10)
        teu2 = top_ports(day.telescope_views["TEU2"].flows, count=10)
        assert set(tus1[:6]) & set(teu2[:10])

    def test_teu1_misses_blocked_ports(self, integration_observatory):
        day = integration_observatory.day(0)
        counts = port_packet_counts(day.telescope_views["TEU1"].flows)
        assert counts.share_of(23) == 0.0
        assert counts.share_of(445) == 0.0

    def test_daily_variability_series(
        self, integration_observatory, telescope
    ):
        views_by_day = {
            day: list(integration_observatory.day(day).ixp_views.values())
            for day in range(7)
        }
        series = daily_series("All", views_by_day, telescope)
        assert len(series.counts) == 7
        assert min(series.counts) > 0
        # Quiet weekends push the inferred count up.
        assert series.weekend_uplift() > 1.0

    def test_sampling_sweep_shape(
        self, integration_observatory, telescope, integration_world
    ):
        views = integration_observatory.all_ixp_views(num_days=1)
        points = sampling_sweep(
            views,
            telescope,
            integration_world.index,
            factors=(1, 4, 64, 512),
        )
        # Inference collapses as sub-sampling deepens.
        assert points[-1].inferred < points[0].inferred
        assert points[-1].sampled_packets < points[0].sampled_packets


class TestDeterminism:
    def test_same_seed_same_inference(self, integration_world, telescope):
        from repro.world.observe import Observatory

        views_a = Observatory(integration_world).all_ixp_views(num_days=1)
        views_b = Observatory(integration_world).all_ixp_views(num_days=1)
        result_a = telescope.infer(views_a)
        result_b = telescope.infer(views_b)
        assert np.array_equal(result_a.prefixes, result_b.prefixes)

"""Tests for per-day feed-quality scoring."""

import numpy as np
import pytest

from repro.faults import (
    CorruptedFields,
    DuplicatedRecords,
    FaultPlan,
    TruncatedDay,
    score_feed,
)

from _factories import ip, make_view

BASE = 0x140000


def clean_view(rows=60, vantage="V", sampling_factor=10.0):
    return make_view(
        [
            {"dst_ip": ip(BASE + i % 5, host=1 + i % 200), "packets": 2}
            for i in range(rows)
        ],
        vantage=vantage,
        sampling_factor=sampling_factor,
    )


class TestScoreFeed:
    def test_clean_day_scores_one(self):
        quality = score_feed(0, [clean_view()])
        assert quality.score == pytest.approx(1.0)
        assert quality.reasons == ()
        assert not quality.degraded(0.5)

    def test_empty_day_scores_zero(self):
        quality = score_feed(3, [])
        assert quality.score == 0.0
        assert quality.reasons == ("no views",)
        assert quality.degraded(0.5)

    def test_missing_feeds_lower_presence(self):
        quality = score_feed(0, [clean_view()], expected_views=4)
        assert quality.score == pytest.approx(0.25)
        assert any("expected feeds" in reason for reason in quality.reasons)

    def test_volume_collapse_detected(self):
        history = [score_feed(0, [clean_view()]).estimated_packets] * 3
        truncated = FaultPlan(seed=1).add(
            TruncatedDay(keep_fraction=0.2)
        ).apply(1, [clean_view()])
        quality = score_feed(1, list(truncated.views), history_packets=history)
        assert quality.volume_ratio == pytest.approx(0.2, abs=0.05)
        assert quality.degraded(0.5)

    def test_volume_inflation_detected(self):
        history = [score_feed(0, [clean_view()]).estimated_packets / 4] * 3
        quality = score_feed(1, [clean_view()], history_packets=history)
        assert quality.volume_ratio == pytest.approx(4.0)
        assert quality.degraded(0.5)

    def test_duplicates_detected(self):
        doubled = FaultPlan(seed=1).add(
            DuplicatedRecords(duplicate_fraction=0.8)
        ).apply(0, [clean_view()])
        quality = score_feed(0, list(doubled.views))
        assert quality.duplicate_fraction > 0.3
        assert quality.degraded(0.5)

    def test_corruption_detected(self):
        corrupted = FaultPlan(seed=1).add(
            CorruptedFields(corrupt_fraction=0.4)
        ).apply(0, [clean_view()])
        quality = score_feed(0, list(corrupted.views))
        assert quality.invalid_fraction == pytest.approx(0.4, abs=0.02)
        assert quality.degraded(0.5)

    def test_sub_unity_sampling_factor_is_implausible(self):
        quality = score_feed(0, [clean_view(sampling_factor=0.5)])
        assert quality.score == pytest.approx(0.3)
        assert any("< 1" in reason for reason in quality.reasons)

    def test_factor_deviation_from_typical(self):
        quality = score_feed(
            0,
            [clean_view(sampling_factor=1000.0)],
            typical_factors={"V": 10.0},
        )
        assert quality.score == pytest.approx(0.3)
        assert any("typical" in reason for reason in quality.reasons)

    def test_factor_within_tolerance_is_fine(self):
        quality = score_feed(
            0,
            [clean_view(sampling_factor=20.0)],
            typical_factors={"V": 10.0},
        )
        assert quality.score == pytest.approx(1.0)

    def test_all_empty_views_degraded(self):
        quality = score_feed(0, [make_view([])])
        assert quality.degraded(0.5)
        assert any("empty" in reason for reason in quality.reasons)

    def test_scoring_never_mutates_views(self):
        view = clean_view()
        before = view.flows.packets.copy()
        score_feed(0, [view], history_packets=[1.0], expected_views=2)
        assert np.array_equal(view.flows.packets, before)


class TestEmptyFlowTables:
    """Zero-row days must score cleanly — never divide by zero."""

    def test_duplicate_and_invalid_fractions_guard_empty(self):
        from repro.faults.quality import _duplicate_fraction, _invalid_fraction

        empty = make_view([]).flows
        assert _duplicate_fraction(empty) == 0.0
        assert _invalid_fraction(empty) == 0.0

    def test_zero_row_day_with_history_scores_finite(self):
        history = [score_feed(0, [clean_view()]).estimated_packets] * 3
        quality = score_feed(1, [make_view([])], history_packets=history)
        assert np.isfinite(quality.score)
        assert quality.score == 0.0
        assert quality.duplicate_fraction == 0.0
        assert quality.invalid_fraction == 0.0
        assert quality.degraded(0.5)

    def test_mixed_empty_and_populated_views(self):
        quality = score_feed(
            0, [make_view([]), clean_view()], expected_views=2
        )
        assert np.isfinite(quality.score)
        # The empty view still counts as delivered; the weighted
        # defect fractions come from the populated one alone.
        assert quality.num_views == 2
        assert quality.duplicate_fraction < 0.05
        assert quality.invalid_fraction == 0.0

    def test_zero_row_day_with_expectations_everywhere(self):
        history = [100.0, 120.0, 110.0]
        quality = score_feed(
            2,
            [make_view([]), make_view([], vantage="W")],
            history_packets=history,
            expected_views=4,
            typical_factors={"VP1": 1.0, "W": 1.0},
        )
        assert np.isfinite(quality.score)
        assert quality.score == 0.0
        assert any("empty" in reason for reason in quality.reasons)


class TestArchiveBackedDay:
    def test_archive_day_scores_like_its_in_memory_twin(self, tmp_path):
        # Multi-segment archives of a micro-world day, one feed carrying
        # duplicated and corrupted rows, score to the equal FeedQuality
        # (floats compared exactly) as the views they were exported from.
        from repro.vantage.archive import export_view
        from repro.world.observe import Observatory
        from repro.world.scenarios import micro_world

        views = Observatory(micro_world(7)).all_ixp_views(num_days=1)
        views = list(
            FaultPlan(seed=5)
            .add(DuplicatedRecords(duplicate_fraction=0.3))
            .add(CorruptedFields(corrupt_fraction=0.2))
            .apply(0, views[:1]).views
        ) + views[1:]
        archived = [
            export_view(view, tmp_path / f"{view.vantage}.fpk", chunk_rows=700)
            for view in views
        ]
        assert any(len(view.archive().segments) > 1 for view in archived)
        typical = {view.vantage: view.sampling_factor for view in views}
        for history in ((), (1e6, 2e6, 3e6)):
            expected = score_feed(
                0, views, history_packets=history,
                expected_views=len(views) + 1, typical_factors=typical,
            )
            assert score_feed(
                0, archived, history_packets=history,
                expected_views=len(views) + 1, typical_factors=typical,
            ) == expected
            assert expected.estimated_packets > 0

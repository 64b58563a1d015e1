"""Tests for the MetaTelescope facade and evaluation helpers."""

import dataclasses

import numpy as np
import pytest

from repro.bgp.rib import Announcement, RouteViewsCollector
from repro.core.evaluation import confusion_against_truth, telescope_coverage
from repro.core.metatelescope import MetaTelescope
from repro.core.pipeline import PipelineConfig
from repro.datasets.liveness import LivenessDataset
from repro.net.ipv4 import Prefix, parse_ip
from repro.vantage.telescope import Telescope
from repro.world.ground_truth import BlockIndex, BlockState

from _factories import ip, make_view

BASE = parse_ip("20.0.0.0") >> 8


def collector():
    return RouteViewsCollector(
        [Announcement(Prefix.parse("20.0.0.0/8"), 65001)]
    )


class TestMetaTelescope:
    def test_basic_inference(self):
        telescope = MetaTelescope(collector=collector())
        result = telescope.infer([make_view([{"dst_ip": ip(BASE)}])])
        assert result.prefixes.tolist() == [BASE]
        assert result.num_prefixes() == 1

    def test_refinement_applied(self):
        telescope = MetaTelescope(
            collector=collector(),
            liveness=[LivenessDataset(name="c", active_blocks=np.array([BASE]))],
        )
        result = telescope.infer([make_view([{"dst_ip": ip(BASE)}])])
        assert result.num_prefixes() == 0
        assert result.refinement.removed_blocks.tolist() == [BASE]

    def test_refine_disabled(self):
        telescope = MetaTelescope(
            collector=collector(),
            liveness=[LivenessDataset(name="c", active_blocks=np.array([BASE]))],
        )
        result = telescope.infer(
            [make_view([{"dst_ip": ip(BASE)}])], refine=False
        )
        assert result.num_prefixes() == 1

    def test_tolerance_requires_baseline(self):
        telescope = MetaTelescope(collector=collector())
        with pytest.raises(ValueError):
            telescope.infer(
                [make_view([{"dst_ip": ip(BASE)}])], use_spoofing_tolerance=True
            )

    def test_tolerance_forgives(self):
        unrouted = np.arange(1000, 1100)
        rows = [
            {"dst_ip": ip(BASE)},
            # pollution of BASE itself plus heavy unrouted pollution to
            # raise the tolerance.
            {"src_ip": ip(BASE, 7), "dst_ip": parse_ip("20.200.0.1")},
            {"src_ip": ip(1000, 1), "dst_ip": parse_ip("20.200.0.1"), "packets": 3},
        ]
        telescope = MetaTelescope(
            collector=collector(), unrouted_baseline=unrouted
        )
        without = telescope.infer([make_view(rows)])
        with_tol = telescope.infer([make_view(rows)], use_spoofing_tolerance=True)
        assert BASE not in without.prefixes
        assert BASE in with_tol.prefixes

    def test_requires_views(self):
        with pytest.raises(ValueError):
            MetaTelescope(collector=collector()).infer([])

    def test_routing_cached(self):
        telescope = MetaTelescope(collector=collector())
        first = telescope.routing_for_days([0, 1])
        second = telescope.routing_for_days([1, 0])
        assert first is second

    def test_replaced_telescope_builds_its_own_caches(self):
        """``dataclasses.replace`` with another feed or other liveness
        datasets must not serve the original's cached routing or union."""
        telescope = MetaTelescope(
            collector=collector(),
            liveness=[LivenessDataset(name="c", active_blocks=np.array([BASE]))],
        )
        views = [make_view([{"dst_ip": ip(BASE)}])]
        assert telescope.infer(views).num_prefixes() == 0  # fills both caches
        other = RouteViewsCollector(
            [Announcement(Prefix.parse("30.0.0.0/8"), 65002)]
        )
        rerouted = dataclasses.replace(telescope, collector=other)
        (announcement,) = rerouted.routing_for_days([0]).announcements
        assert str(announcement.prefix) == "30.0.0.0/8"
        assert rerouted.infer(views).num_prefixes() == 0  # 20/8 unrouted now
        unrefined = dataclasses.replace(telescope, liveness=[])
        assert unrefined.infer(views).prefixes.tolist() == [BASE]
        (announcement,) = telescope.routing_for_days([0]).announcements
        assert str(announcement.prefix) == "20.0.0.0/8"

    def test_for_world_wires_the_world_presets(self, world):
        telescope = MetaTelescope.for_world(world)
        assert telescope.collector is world.collector
        assert telescope.liveness is world.datasets.liveness
        np.testing.assert_array_equal(
            telescope.unrouted_baseline, np.unique(world.unrouted_baseline_blocks)
        )
        assert telescope.config == PipelineConfig(
            avg_size_threshold=world.config.avg_size_threshold,
            volume_threshold_pkts_day=world.config.volume_threshold_pkts_day,
        )

    def test_liveness_union_cached_until_the_datasets_change(self):
        first = LivenessDataset(name="c", active_blocks=np.array([BASE + 1, BASE]))
        second = LivenessDataset(name="n", active_blocks=np.array([BASE + 1]))
        telescope = MetaTelescope(collector=collector(), liveness=[first, second])
        views = [make_view([{"dst_ip": ip(BASE)}, {"dst_ip": ip(BASE + 2)}])]
        (union,) = telescope.liveness_union()
        assert union.name == "c+n"
        assert union.active_blocks.tolist() == [BASE, BASE + 1]
        assert telescope.infer(views).prefixes.tolist() == [BASE + 2]
        assert telescope.liveness_union()[0] is union  # merged once

        # Reassigned, or edited in place: the stale union must not serve.
        telescope.liveness = [second]
        assert telescope.liveness_union() == [second]
        assert telescope.infer(views).prefixes.tolist() == [BASE, BASE + 2]
        telescope.liveness.append(
            LivenessDataset(name="i", active_blocks=np.array([BASE + 2]))
        )
        assert telescope.infer(views).prefixes.tolist() == [BASE]
        telescope.liveness = []
        assert telescope.liveness_union() == []
        result = telescope.infer(views)
        assert result.prefixes.tolist() == [BASE, BASE + 2]
        assert result.to_snapshot(0).verdict_counts() == {"dark": 2}

    def test_snapshot_marks_refined_blocks_candidate(self):
        telescope = MetaTelescope(
            collector=collector(),
            liveness=[LivenessDataset(name="c", active_blocks=np.array([BASE]))],
        )
        views = [make_view([{"dst_ip": ip(BASE)}, {"dst_ip": ip(BASE + 2)}])]
        snapshot = telescope.infer(views).to_snapshot(0)
        assert snapshot.lookup(BASE).verdict_name == "candidate"
        assert snapshot.lookup(BASE + 2).dark

    def test_captured_traffic(self):
        telescope = MetaTelescope(collector=collector())
        views = [make_view([{"dst_ip": ip(BASE)}, {"dst_ip": ip(5000)}])]
        result = telescope.infer(views)
        captured = telescope.captured_traffic(views, result)
        assert captured.dst_blocks().tolist() == [BASE]


class TestEvaluation:
    def test_telescope_coverage(self):
        telescope = Telescope(code="T", region="NA", blocks=np.array([5, 6, 7]))
        row = telescope_coverage(np.array([5, 7, 99]), telescope)
        assert row.inferred_inside == 2
        assert row.coverage() == pytest.approx(2 / 3)

    def test_coverage_respects_lent_blocks(self):
        telescope = Telescope(
            code="T", region="NA", blocks=np.array([5, 6]),
            lent_blocks_by_day={0: np.array([6])},
        )
        row = telescope_coverage(np.array([5, 6]), telescope, day=0)
        assert row.inferred_inside == 1

    def test_confusion(self):
        index = BlockIndex(
            blocks=np.array([10, 11, 12]),
            asn=np.array([1, 1, 1]),
            country_index=np.array([0, 0, 0]),
            type_index=np.array([0, 0, 0]),
            state=np.array(
                [int(BlockState.DARK), int(BlockState.ACTIVE), int(BlockState.DARK)]
            ),
        )
        confusion = confusion_against_truth(np.array([10, 11]), index)
        assert confusion.true_positives == 1
        assert confusion.false_positives == 1
        assert confusion.missed_dark == 1
        assert confusion.false_positive_rate_of_inferred() == pytest.approx(0.5)
        assert confusion.recall() == pytest.approx(0.5)

    def test_confusion_day_overrides(self):
        index = BlockIndex(
            blocks=np.array([10]),
            asn=np.array([1]),
            country_index=np.array([0]),
            type_index=np.array([0]),
            state=np.array([int(BlockState.TELESCOPE)]),
        )
        confusion = confusion_against_truth(
            np.array([10]), index, day_active_overrides=np.array([10])
        )
        assert confusion.false_positives == 1
        assert confusion.true_positives == 0

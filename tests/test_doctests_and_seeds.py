"""Doctest execution and cross-seed robustness of the world generator."""

import doctest

import numpy as np
import pytest

import repro.net.ipv4
import repro.net.hilbert
from repro.core import MetaTelescope
from repro.core.evaluation import confusion_against_truth
from repro.world.builder import build_world
from repro.world.config import micro_config
from repro.world.observe import Observatory


class TestDoctests:
    @pytest.mark.parametrize(
        "module", [repro.net.ipv4], ids=lambda m: m.__name__
    )
    def test_module_doctests(self, module):
        results = doctest.testmod(module, verbose=False)
        assert results.failed == 0
        assert results.attempted > 0


@pytest.mark.parametrize("seed", [7, 11, 23, 101])
class TestSeedRobustness:
    """Shape invariants must hold for any seed, not just the default."""

    @pytest.fixture()
    def inference(self, seed):
        world = build_world(micro_config(seed=seed))
        observatory = Observatory(world)
        telescope = MetaTelescope.for_world(world)
        views = observatory.all_ixp_views(num_days=1)
        return world, telescope.infer(views, use_spoofing_tolerance=True)

    def test_substantial_inference(self, inference, seed):
        world, result = inference
        truly_dark = len(world.index.truly_dark_blocks())
        assert result.num_prefixes() > 0.2 * truly_dark

    def test_low_false_positives(self, inference, seed):
        world, result = inference
        confusion = confusion_against_truth(result.prefixes, world.index)
        assert confusion.false_positive_rate_of_inferred() < 0.1

    def test_funnel_monotone(self, inference, seed):
        _, result = inference
        counts = [count for _, count in result.pipeline.funnel.as_rows()]
        assert counts == sorted(counts, reverse=True)

    def test_classes_partition(self, inference, seed):
        _, result = inference
        pipeline = result.pipeline
        total = (
            len(pipeline.dark_blocks)
            + len(pipeline.unclean_blocks)
            + len(pipeline.gray_blocks)
        )
        assert total == pipeline.funnel.after_volume

    def test_telescope_blocks_never_sourced(self, inference, seed):
        world, result = inference
        # Telescope space must never classify gray from genuine traffic
        # (only spoofed claims could, and the tolerance forgives most).
        tus1 = world.telescopes["TUS1"].blocks
        gray = np.isin(tus1, result.pipeline.gray_blocks).mean()
        assert gray < 0.5

"""Direct tests of the world builder's internal helpers."""

import numpy as np
import pytest

from repro.net.special import SPECIAL_PURPOSE_REGISTRY
from repro.world.builder import _Allocator, _decompose_blocks
from repro.world.config import micro_config
from repro.world.ground_truth import BlockState
from repro.world.scenarios import micro_world


class TestAllocator:
    def make(self):
        return _Allocator(forbidden_blocks=[(39 << 16, (39 << 16) + 255)])

    def test_alignment(self):
        allocator = self.make()
        allocator.allocate(24)
        prefix = allocator.allocate(20)
        assert prefix.network % (1 << (32 - 20)) == 0

    def test_sequential_non_overlapping(self):
        allocator = self.make()
        prefixes = [allocator.allocate(22) for _ in range(10)]
        blocks = [b for p in prefixes for b in p.blocks()]
        assert len(blocks) == len(set(blocks))

    def test_avoids_special_space(self):
        allocator = self.make()
        for _ in range(64):
            prefix = allocator.allocate(16)
            edges = np.array([prefix.first_block(),
                              prefix.first_block() + prefix.num_blocks() - 1])
            assert not SPECIAL_PURPOSE_REGISTRY.special_mask(edges).any()

    def test_avoids_forbidden_octet(self):
        allocator = self.make()
        for _ in range(128):
            prefix = allocator.allocate(16)
            assert prefix.network >> 24 != 39

    def test_rejects_long_prefixes(self):
        with pytest.raises(ValueError):
            self.make().allocate(25)

    def test_exhaustion(self):
        allocator = self.make()
        with pytest.raises(RuntimeError):
            for _ in range(10_000):
                allocator.allocate(8)


class TestDecomposeMore:
    @pytest.mark.parametrize("target", [1, 2, 3, 7, 255, 256, 257, 26_079])
    def test_sizes_close(self, target):
        lengths = _decompose_blocks(target)
        total = sum(1 << (24 - length) for length in lengths)
        assert total >= target
        assert total <= target + (1 << (24 - max(lengths)))

    def test_lengths_valid(self):
        for length in _decompose_blocks(12345):
            assert 8 <= length <= 24


class TestGroundTruthDistribution:
    def test_state_proportions_sane(self, world):
        """The configured usage mix is realised within tolerance."""
        index = world.index
        total = len(index)
        dark = (index.state == int(BlockState.DARK)).mean()
        mixed = (index.state == int(BlockState.MIXED)).mean()
        active = (index.state == int(BlockState.ACTIVE)).mean()
        assert 0.1 < dark < 0.6
        assert mixed > active  # lightly-used client space dominates
        assert total > 500

    def test_dark_runs_contiguous(self, world):
        """Dark space comes in runs (the Hilbert-visible structure)."""
        dark = world.index.truly_dark_blocks()
        adjacent = (np.diff(dark) == 1).mean()
        assert adjacent > 0.5

    def test_deterministic_datasets(self):
        a = micro_world(31)
        b = micro_world(31)
        assert np.array_equal(
            a.datasets.liveness[0].active_blocks,
            b.datasets.liveness[0].active_blocks,
        )
        assert a.datasets.ipinfo.mapping == b.datasets.ipinfo.mapping

    def test_campaign_locality_masks(self, world):
        """The regional campaigns target only their footprint."""
        from repro.traffic.scanners import ScanCampaign

        campaigns = {
            actor.name: actor
            for actor in world.mix.actors
            if isinstance(actor, ScanCampaign)
        }
        redis = campaigns["redis-campaign"]
        live = redis.target_blocks[
            (redis.target_weights if redis.target_weights is not None else 1)
            > 0
        ]
        continents = world.index.continents_of(live)
        countries = world.index.country_codes_of(live)
        for continent, country in zip(continents, countries):
            assert continent == "NA" or country == "CH"

    def test_blacklist_campaign_avoids_telescopes(self, world):
        from repro.traffic.scanners import ScanCampaign

        research = next(
            actor
            for actor in world.mix.actors
            if isinstance(actor, ScanCampaign)
            and actor.name == "research-scanners"
        )
        assert research.avoid_blocks is not None
        assert np.isin(
            world.telescopes["TUS1"].blocks, research.avoid_blocks
        ).all()

"""Tests for the content-addressed capture cache and its Observatory wiring."""

import numpy as np
import pytest

from repro.traffic.flows import FLOW_COLUMNS
from repro.world.builder import build_world
from repro.world.capture_cache import CaptureCache, capture_key
from repro.world.config import micro_config
from repro.world.observe import Observatory


@pytest.fixture(scope="module")
def world():
    return build_world(micro_config(seed=13))


def _views_equal(a, b) -> bool:
    return (
        a.vantage == b.vantage
        and a.day == b.day
        and a.sampling_factor == b.sampling_factor
        and all(
            np.array_equal(getattr(a.flows, name), getattr(b.flows, name))
            for name in FLOW_COLUMNS
        )
    )


class TestKeys:
    def test_key_is_content_addressed(self):
        a = micro_config(seed=1)
        b = micro_config(seed=2)
        assert capture_key(a, 0, "CE1") == capture_key(a, 0, "CE1")
        assert capture_key(a, 0, "CE1") != capture_key(b, 0, "CE1")
        assert capture_key(a, 0, "CE1") != capture_key(a, 1, "CE1")
        assert capture_key(a, 0, "CE1") != capture_key(a, 0, "CE2")

    def test_knobs_participate(self):
        config = micro_config(seed=1)
        plain = capture_key(config, 0, "CE1")
        knobbed = capture_key(config, 0, "CE1", {"decimate": 10})
        assert plain != knobbed
        assert knobbed == capture_key(config, 0, "CE1", {"decimate": 10})


class TestCache:
    def test_store_then_load_bit_identical(self, world, tmp_path):
        cache = CaptureCache(tmp_path / "cache")
        view = Observatory(world).day(0).isp_view
        key = cache.key_for(world.config, 0, view.vantage)
        assert cache.load(key) is None
        cache.store(key, view)
        loaded = cache.load(key)
        assert loaded is not None
        assert _views_equal(view, loaded)
        assert (cache.hits, cache.misses) == (1, 1)

    def test_unreadable_entry_is_a_miss(self, world, tmp_path):
        cache = CaptureCache(tmp_path / "cache")
        view = Observatory(world).day(0).isp_view
        key = cache.key_for(world.config, 0, view.vantage)
        cache.store(key, view)
        cache.path_for(key).write_bytes(b"garbage")
        assert cache.load(key) is None
        assert not cache.path_for(key).exists()

    def test_stats_and_prune(self, world, tmp_path):
        cache = CaptureCache(tmp_path / "cache")
        view = Observatory(world).day(0).isp_view
        cache.store(cache.key_for(world.config, 0, view.vantage), view)
        stats = cache.stats()
        assert stats.entries == 1 and stats.bytes > 0
        assert stats.misses == 0 and stats.hits == 0


class TestObservatoryWiring:
    def test_warm_run_skips_generation_and_matches(self, world, tmp_path):
        cache = CaptureCache(tmp_path / "cache")
        cold = Observatory(world, capture_cache=cache).day(0)
        assert cache.stats().entries > 0

        class ExplodingMix:
            def generate_day(self, day, rng):
                raise AssertionError("generate_day called on a warm cache")

        warm_world = build_world(micro_config(seed=13))
        warm_world.mix = ExplodingMix()
        warm = Observatory(warm_world, capture_cache=cache).day(0)

        for code, view in cold.ixp_views.items():
            assert _views_equal(view, warm.ixp_views[code])
        for code, view in cold.telescope_views.items():
            assert _views_equal(view, warm.telescope_views[code])
        assert _views_equal(cold.isp_view, warm.isp_view)

    def test_partial_cache_regenerates(self, world, tmp_path):
        cache = CaptureCache(tmp_path / "cache")
        cold = Observatory(world, capture_cache=cache).day(0)
        victim = next(iter(cold.ixp_views))
        cache.path_for(cache.key_for(world.config, 0, victim)).unlink()

        rerun_world = build_world(micro_config(seed=13))
        rerun = Observatory(rerun_world, capture_cache=cache).day(0)
        assert _views_equal(cold.ixp_views[victim], rerun.ixp_views[victim])

    def test_different_seed_never_hits(self, world, tmp_path):
        cache = CaptureCache(tmp_path / "cache")
        Observatory(world, capture_cache=cache).day(0)
        other = build_world(micro_config(seed=14))
        Observatory(other, capture_cache=cache).day(0)
        assert cache.hits == 0

    def test_no_cache_unchanged(self, world):
        observatory = Observatory(world)
        assert observatory.capture_cache is None
        assert observatory.day(0).day == 0

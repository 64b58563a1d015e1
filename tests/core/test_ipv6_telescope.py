"""End-to-end tests for IPv6 inference through the unchanged engine."""

import dataclasses
from unittest import mock

import numpy as np
import pytest

from repro.cli import main
from repro.core.ipv6_telescope import infer_ipv6, ipv6_telescope
from repro.core.kernels import NumpyKernel, native_provider
from repro.core.online import OnlineMetaTelescope
from repro.core.snapshot import VERDICT_CANDIDATE, ClassificationSnapshot
from repro.io import read_prefix_list
from repro.net.family import FAMILY_IPV6, IPV6
from repro.service import MetaTelescopeService
from repro.world.ipv6 import (
    LEAKED_SITE,
    build_ipv6_world,
    giant_ipv6_config,
    ipv6_views,
    micro_ipv6_config,
    micro_ipv6_world,
)


@pytest.fixture(scope="module")
def world():
    return micro_ipv6_world(seed=7)


@pytest.fixture(scope="module")
def views(world):
    return ipv6_views(world)


@pytest.fixture(scope="module")
def report(world, views):
    """The reference run: every other execution shape must match it."""
    return infer_ipv6(world, views, kernel="numpy")


class TestBatch:
    def test_funnel_pinned_micro_seed7(self, report):
        counts = report.result.pipeline.funnel
        assert counts.observed == 25
        assert counts.after_tcp == 24
        assert counts.after_avg_size == 19
        assert counts.after_source_unseen == 19
        assert counts.after_special == 18
        assert counts.after_routed == 14
        assert counts.after_volume == 13

    def test_served_and_coverage_pinned(self, report):
        assert len(report.served_sites) == 12
        assert report.coverage.truth_dark == 10
        assert report.coverage.served == 12
        assert report.coverage.recall() == pytest.approx(0.8)
        assert report.coverage.precision() == pytest.approx(8 / 12)

    def test_engine_drops_what_the_candidate_filter_cannot(self, world, report):
        # The leak makes documentation space routed, so only the
        # special-purpose stage can exclude it.
        served = set(report.served_sites.tolist())
        assert LEAKED_SITE in report.candidates.candidate_sites
        assert LEAKED_SITE not in served
        # Flooded and UDP-only dark sites fall at the volume/TCP stages.
        assert world.flood_site not in served
        assert world.udp_only_site not in served

    def test_served_is_dark_and_candidate(self, report):
        dark = set(report.result.pipeline.dark_blocks.tolist())
        candidates = set(report.candidates.candidate_sites)
        served = set(report.served_sites.tolist())
        assert served == dark & candidates

    @pytest.mark.parametrize(
        "config",
        [micro_ipv6_config(seed) for seed in range(1, 6)]
        + [dataclasses.replace(giant_ipv6_config(3), num_orgs=40)],
        ids=[f"micro-{seed}" for seed in range(1, 6)] + ["giant-3-orgs40"],
    )
    def test_refinement_is_the_candidate_filter(self, config):
        """The oracle above, on more worlds: serving ``dark - hitlist``
        (liveness refinement in the facade) is serving the engine-dark
        sites that survive the sets-and-loops candidate filter."""
        world = build_ipv6_world(config)
        report = infer_ipv6(world, ipv6_views(world))
        dark = set(report.result.pipeline.dark_blocks.tolist())
        candidates = set(report.candidates.candidate_sites)
        served = set(report.served_sites.tolist())
        assert served == dark & candidates
        assert dark - served  # the hitlist removed something

    def test_snapshot_family_and_provenance(self, report):
        assert report.snapshot.family == FAMILY_IPV6
        assert set(report.snapshot.provenance) == {
            "engine", "hitlist_sites", "candidate_drops",
        }
        assert report.snapshot.provenance["engine"] == "ipv6"
        drops = report.snapshot.provenance["candidate_drops"]
        assert drops == {"unannounced": 4, "hitlist": 6, "sources": 0}


class TestExecutionIdentity:
    def test_chunked_matches_batch(self, world, views, report):
        chunked = infer_ipv6(world, views, chunk_size=97)
        assert np.array_equal(chunked.served_sites, report.served_sites)
        assert chunked.snapshot.identical_to(report.snapshot)

    def test_parallel_matches_batch(self, world, views, report):
        parallel = infer_ipv6(world, views, workers=2)
        assert np.array_equal(parallel.served_sites, report.served_sites)
        assert parallel.snapshot.identical_to(report.snapshot)

    @pytest.mark.skipif(native_provider() is None, reason="native degraded")
    def test_native_kernel_matches_numpy(self, world, views, report):
        # Forbid the reference fold, so a native kernel that declines
        # the uint64 keys fails here instead of comparing numpy with
        # numpy.
        declined = AssertionError("the native kernel declined a v6 chunk")
        with mock.patch.object(NumpyKernel, "fold_chunk", side_effect=declined):
            native = infer_ipv6(world, views, kernel="native")
        assert np.array_equal(native.served_sites, report.served_sites)
        assert native.snapshot.identical_to(report.snapshot)

    def test_cli_infer_writes_the_batch_served_sites(
        self, world, report, tmp_path, capsys
    ):
        output = tmp_path / "v6-prefixes.txt"
        assert main([
            "infer", "--family", "ipv6", "--scale", "micro",
            "--days", str(world.config.num_days), "--workers", "2",
            "--output", str(output),
        ]) == 0
        served = read_prefix_list(output, family=IPV6)
        assert np.array_equal(served, report.served_sites)


class TestOnline:
    def test_online_matches_batch_dark_set(self, world, views, report):
        online = OnlineMetaTelescope(
            telescope=ipv6_telescope(world),
            window_days=world.config.num_days,
            min_stable_days=1,
            use_spoofing_tolerance=False,
        )
        for view in views:
            update = online.update(view.day, [view])
            assert update.action == "inferred"
        # The hitlist is the facade's liveness dataset, so the online
        # engine refines exactly as the batch one does.
        assert np.array_equal(online.current_prefixes(), report.served_sites)
        snapshot = online.snapshot()
        assert snapshot.family == FAMILY_IPV6
        hitlisted_dark = report.result.refinement.removed_blocks
        assert len(hitlisted_dark) == 1
        assert np.array_equal(
            snapshot.blocks[snapshot.verdicts == VERDICT_CANDIDATE],
            hitlisted_dark,
        )

    def test_engine_that_has_not_folded_publishes_ipv6(self, world):
        """Before its first folded day the engine has no window result;
        its snapshot is still an IPv6 one, so /48 queries are answered,
        not refused as malformed IPv4."""
        online = OnlineMetaTelescope(
            telescope=ipv6_telescope(world),
            window_days=world.config.num_days,
            min_stable_days=1,
            use_spoofing_tolerance=False,
            policy="carry",
        )
        snapshots = [online.snapshot()]
        online.update(0, [])
        snapshots.append(online.snapshot())
        for snapshot in snapshots:
            assert snapshot.family == FAMILY_IPV6
            service = MetaTelescopeService()
            service.publish(snapshot)
            answer = service.point("2001:db8::/48")
            assert answer["prefix"] == "2001:db8::/48"
            assert answer["verdict"] == "unknown"


class TestPersistence:
    def test_snapshot_roundtrip_keeps_family(self, report, tmp_path):
        path = tmp_path / "v6.snapshot"
        report.snapshot.save(path)
        loaded = ClassificationSnapshot.open(path)
        assert loaded.family == FAMILY_IPV6
        assert loaded.identical_to(report.snapshot)

    def test_roundtripped_snapshot_formats_sites(self, report, tmp_path):
        path = tmp_path / "v6.snapshot"
        report.snapshot.save(path)
        loaded = ClassificationSnapshot.open(path)
        answer = loaded.lookup(int(report.served_sites[0]))
        assert answer.dark
        assert str(answer.prefix).endswith("/48")


class TestValidation:
    def test_empty_views_rejected(self, world):
        with pytest.raises(ValueError):
            infer_ipv6(world, [])

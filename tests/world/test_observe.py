"""Tests for the observatory (per-day observation cache)."""

import numpy as np
import pytest

from repro.world.observe import Observatory


class TestObservatory:
    def test_day_cached(self, observatory):
        assert observatory.day(0) is observatory.day(0)

    def test_views_structure(self, day0, world):
        assert set(day0.ixp_views) == set(world.fabric.codes())
        assert set(day0.telescope_views) == {"TUS1", "TEU1", "TEU2"}
        assert day0.isp_view.vantage == "ISP1"

    def test_view_lookup(self, day0):
        assert day0.ixp_views["CE1"].vantage == "CE1"
        assert day0.telescope_views["TUS1"].vantage == "TUS1"
        assert day0.isp_view.vantage == "ISP1"
        with pytest.raises(KeyError):
            day0.ixp_views["NOPE"]

    def test_sampling_factors_match_config(self, day0, world):
        for spec in world.config.ixps:
            assert day0.ixp_views[spec.code].sampling_factor == spec.sampling_factor
        assert day0.telescope_views["TUS1"].sampling_factor == 1.0

    def test_telescope_sees_only_its_blocks(self, day0, world):
        for code, telescope in world.telescopes.items():
            view = day0.telescope_views[code]
            if len(view.flows):
                assert np.isin(view.flows.dst_blocks(), telescope.blocks).all()

    def test_teu1_never_sees_blocked_ports(self, observatory):
        for day in range(2):
            view = observatory.day(day).telescope_views["TEU1"]
            assert not np.isin(view.flows.dport, [23, 445]).any()

    def test_isp_view_restricted(self, day0, world):
        flows = day0.isp_view.flows
        touches = np.isin(flows.dst_blocks(), world.isp.blocks) | np.isin(
            flows.src_blocks(), world.isp.blocks
        )
        assert touches.all()

    def test_deterministic_across_instances(self, world):
        a = Observatory(world).day(0)
        b = Observatory(world).day(0)
        assert a.ixp_views["CE1"].flows.total_packets() == b.ixp_views[
            "CE1"
        ].flows.total_packets()

    def test_days_list(self, observatory, world):
        observations = observatory.days(2)
        assert [o.day for o in observations] == [0, 1]

    def test_all_ixp_views_count(self, observatory, world):
        views = observatory.all_ixp_views(num_days=2)
        assert len(views) == 2 * len(world.fabric.ixps)

    def test_big_ixps_see_more(self, day0):
        big = day0.ixp_views["CE1"].flows.total_packets()
        small = day0.ixp_views["SE6"].flows.total_packets()
        assert big > small

    def test_telescope_receives_mostly_tcp(self, day0):
        from repro.traffic.packets import PROTO_TCP

        flows = day0.telescope_views["TUS1"].flows
        tcp = flows.filter(flows.proto == PROTO_TCP)
        assert tcp.total_packets() > 0.7 * flows.total_packets()

"""Structural tests of the generated world (micro scale)."""

import numpy as np
import pytest

from repro.bgp.asinfo import ASType
from repro.net.special import SPECIAL_PURPOSE_REGISTRY
from repro.world.builder import _decompose_blocks, build_world
from repro.world.config import micro_config
from repro.world.ground_truth import BlockState


class TestDecompose:
    def test_exact_power(self):
        assert _decompose_blocks(256) == [16]

    def test_mixed(self):
        lengths = _decompose_blocks(26_079)
        sizes = sum(1 << (24 - length) for length in lengths)
        assert abs(sizes - 26_079) <= 64  # rounded into CIDR pieces

    def test_single_block(self):
        assert _decompose_blocks(1) == [24]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            _decompose_blocks(0)

    def test_respects_max_parts(self):
        assert len(_decompose_blocks(0b101010101, max_parts=3)) <= 3


class TestWorldStructure:
    def test_deterministic(self):
        a = build_world(micro_config(seed=3))
        b = build_world(micro_config(seed=3))
        assert np.array_equal(a.index.blocks, b.index.blocks)
        assert np.array_equal(a.index.state, b.index.state)

    def test_seed_changes_world(self):
        a = build_world(micro_config(seed=3))
        b = build_world(micro_config(seed=4))
        assert not np.array_equal(a.index.state, b.index.state)

    def test_telescopes_exist(self, world):
        assert set(world.telescopes) == {"TUS1", "TEU1", "TEU2"}
        config = world.config
        assert world.telescopes["TUS1"].size() == config.tus1_blocks
        assert world.telescopes["TEU1"].size() == config.teu1_blocks
        assert world.telescopes["TEU2"].size() == config.teu2_blocks

    def test_telescope_blocks_marked_dark(self, world):
        for telescope in world.telescopes.values():
            states = world.index.state_of(telescope.blocks)
            assert (states == int(BlockState.TELESCOPE)).all()

    def test_tus1_inside_isp(self, world):
        tus1 = world.telescopes["TUS1"].blocks
        assert np.isin(tus1, world.isp.blocks).all()

    def test_isp_activity_counts(self, world):
        states = world.index.state_of(world.isp.blocks)
        config = world.config
        assert (states == int(BlockState.ACTIVE)).sum() == config.isp_active_blocks
        assert (states == int(BlockState.LOW_ACTIVE)).sum() == config.isp_low_active_blocks

    def test_teu1_blocks_port_filtered(self, world):
        assert world.telescopes["TEU1"].blocked_ports == frozenset({23, 445})

    def test_teu1_lending_sticky(self, world):
        teu1 = world.telescopes["TEU1"]
        lent_sets = [set(v.tolist()) for v in teu1.lent_blocks_by_day.values()]
        union = set().union(*lent_sets)
        never_lent = teu1.size() - len(union)
        # A stable remainder must never be lent out.
        assert never_lent >= teu1.size() * 0.2

    def test_announced_space_not_special(self, world):
        mask = SPECIAL_PURPOSE_REGISTRY.special_mask(world.index.blocks)
        assert not mask.any()

    def test_unrouted_baseline_not_announced(self, world):
        assert not np.isin(
            world.unrouted_baseline_blocks, world.index.blocks
        ).any()

    def test_all_states_present(self, world):
        states = set(world.index.state.tolist())
        for required in (BlockState.DARK, BlockState.ACTIVE, BlockState.MIXED,
                         BlockState.CDN_SINK, BlockState.TELESCOPE,
                         BlockState.LOW_ACTIVE):
            assert int(required) in states

    def test_collector_covers_most_announced(self, world):
        routed = world.collector.daily_table(0).routed_mask(world.index.blocks)
        assert routed.mean() > 0.98

    def test_true_routing_covers_all_announced(self, world):
        assert world.true_routing.routed_mask(world.index.blocks).all()

    def test_registry_types_diverse(self, world):
        types = {a.as_type for a in world.registry}
        assert types == set(ASType)

    def test_fabric_has_all_ixps(self, world):
        assert len(world.fabric.ixps) == 14
        assert world.fabric.codes()[0] == "CE1"

    def test_teu2_member_at_configured_ixps(self, world):
        teu2_asn = world.special_asns["teu2"]
        for ixp in world.fabric.ixps:
            expected = ixp.code in world.config.teu2_member_ixps
            assert (teu2_asn in ixp.member_asns) == expected

    def test_tus1_host_not_member_in_europe(self, world):
        isp_asn = world.special_asns["isp"]
        for ixp in world.fabric.ixps:
            if ixp.code.startswith(("CE", "SE")):
                assert isp_asn not in ixp.member_asns

    def test_tus1_invisible_at_ce1(self, world):
        # The paper cannot find TUS1's space at CE1 at all.
        isp_asn = world.special_asns["isp"]
        assert world.fabric.engagement_of("CE1", isp_asn) == 0.0

    def test_datasets_present(self, world):
        datasets = world.datasets
        assert [d.name for d in datasets.liveness] == ["censys", "ndt", "isi"]
        organizations = {org.org_id for org in datasets.as2org.mapping.values()}
        assert len(organizations) == len(world.registry)

    def test_liveness_mostly_correct(self, world):
        union_active = world.index.truly_active_blocks()
        censys = world.datasets.liveness[0]
        recall = censys.contains(union_active).mean()
        assert recall > 0.8

    def test_annotate_dst_asn(self, world, rng):
        flows = world.mix.generate_day(0, rng)
        annotated = world.annotate_dst_asn(flows)
        known = world.index.positions(annotated.dst_blocks()) >= 0
        assert (annotated.dst_asn[known] >= 0).all()

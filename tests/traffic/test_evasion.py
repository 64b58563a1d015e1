"""Tests for the padded-evasive scanner and the epidemic outbreak actor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flowpack import FlowpackArchive
from repro.io import read_flows_csv, write_flows
from repro.traffic.epidemic import EpidemicOutbreakActor
from repro.traffic.evasion import (
    MIN_PADDED_SIZE,
    PaddedEvasiveScanner,
    padded_probe_size_model,
)
from repro.traffic.packets import (
    PROTO_TCP,
    TCP_SYN_ONE_OPTION_SIZE,
    PacketSizeModel,
)
from repro.traffic.scanners import ScanSource


def sources(count=4):
    return [ScanSource(ip=0x0A000001 + i, asn=100 + i) for i in range(count)]


def scanner(**overrides):
    defaults = dict(
        sources=sources(),
        target_blocks=np.arange(2000, 2032, dtype=np.int64),
        pkts_per_block_day=50.0,
    )
    defaults.update(overrides)
    return PaddedEvasiveScanner(**defaults)


class TestPaddedEvasiveScanner:
    def test_size_model_exceeds_per_ip_slack(self):
        model = padded_probe_size_model()
        assert min(model.sizes) >= MIN_PADDED_SIZE
        assert MIN_PADDED_SIZE > TCP_SYN_ONE_OPTION_SIZE

    def test_rejects_unpadded_size_model(self):
        with pytest.raises(ValueError):
            scanner(
                size_model=PacketSizeModel(sizes=(40, 60), weights=(0.5, 0.5))
            )

    def test_flows_are_tcp_toward_targets(self):
        actor = scanner()
        flows = actor.generate(0, np.random.default_rng(1))
        assert len(flows) > 0
        assert (flows.proto == PROTO_TCP).all()
        assert np.isin(flows.dst_ip >> 8, actor.target_blocks).all()

    @settings(max_examples=20, deadline=None)
    @given(day=st.integers(0, 6), seed=st.integers(0, 2**31 - 1))
    def test_every_flow_exceeds_the_size_fingerprint(self, day, seed):
        """No padded flow can ever look like bare SYN radiation: the
        per-flow mean packet size always clears the 44-byte average
        threshold AND the 48-byte per-IP slack."""
        flows = scanner().generate(day, np.random.default_rng(seed))
        assert len(flows) > 0
        mean_size = flows.bytes / flows.packets
        assert (mean_size >= MIN_PADDED_SIZE).all()
        assert (mean_size > TCP_SYN_ONE_OPTION_SIZE).all()

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_padding_survives_csv_flowpack_round_trip(self, seed, tmp_path_factory):
        """Serialisation must not shave the padding off: after a
        CSV→flowpack→memory round trip every flow still exceeds the
        fingerprint."""
        tmp_path = tmp_path_factory.mktemp("evasion")
        flows = scanner().generate(0, np.random.default_rng(seed))
        csv_path = tmp_path / "padded.csv"
        pack_path = tmp_path / "padded.fp"
        write_flows(flows, str(csv_path), format="csv")
        from_csv = read_flows_csv(str(csv_path))
        write_flows(from_csv, str(pack_path), format="flowpack")
        restored = FlowpackArchive(str(pack_path)).read_all()
        assert np.array_equal(restored.bytes, flows.bytes)
        assert np.array_equal(restored.packets, flows.packets)
        assert (restored.bytes / restored.packets >= MIN_PADDED_SIZE).all()


class TestEpidemicOutbreakActor:
    def epidemic(self, **overrides):
        defaults = dict(
            bot_pool=sources(40),
            target_blocks=np.arange(3000, 3064, dtype=np.int64),
            pkts_per_bot_day=30.0,
            start_day=0,
            midpoint_day=2.0,
        )
        defaults.update(overrides)
        return EpidemicOutbreakActor(**defaults)

    def test_logistic_growth_is_monotone_to_capacity(self):
        actor = self.epidemic()
        counts = [actor.infected_on(day) for day in range(8)]
        assert counts == sorted(counts)
        assert counts[0] >= 1
        assert counts[-1] == len(actor.bot_pool)

    def test_silent_before_start_day(self):
        actor = self.epidemic(start_day=3)
        assert actor.infected_on(1) == 0
        assert len(actor.generate(1, np.random.default_rng(0))) == 0
        assert len(actor.generate(3, np.random.default_rng(0))) > 0

    def test_traffic_scales_with_infection(self):
        actor = self.epidemic()
        early = actor.generate(0, np.random.default_rng(5))
        late = actor.generate(5, np.random.default_rng(5))
        assert late.packets.sum() > early.packets.sum()

    def test_telnet_dominates_the_port_mix(self):
        flows = self.epidemic().generate(6, np.random.default_rng(2))
        telnet_share = (flows.dport == 23).mean()
        assert telnet_share > 0.6

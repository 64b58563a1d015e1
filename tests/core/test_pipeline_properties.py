"""Property-based tests of the inference pipeline's invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import PipelineConfig, run_pipeline
from repro.net.ipv4 import parse_ip
from repro.net.special import SPECIAL_PURPOSE_REGISTRY
from repro.traffic.flows import FlowTable
from repro.traffic.packets import PROTO_ICMP, PROTO_TCP, PROTO_UDP
from repro.vantage.sampling import VantageDayView

from _factories import routing_for

ROUTING = routing_for("20.0.0.0/8", "21.0.0.0/8")
BASE = parse_ip("20.0.0.0") >> 8


@st.composite
def flow_tables(draw):
    """Random small flow tables around the announced test space."""
    count = draw(st.integers(min_value=1, max_value=60))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31)))
    # Destinations spread over announced, unannounced and reserved space.
    dst_pool = np.array(
        [BASE + i for i in range(8)]
        + [parse_ip("99.0.0.0") >> 8, parse_ip("192.168.1.0") >> 8]
    )
    dst_blocks = rng.choice(dst_pool, size=count)
    dst_ip = (dst_blocks.astype(np.uint32) << np.uint32(8)) | rng.integers(
        0, 4, size=count, dtype=np.uint32
    )
    src_ip = ((BASE + rng.integers(0, 8, size=count)).astype(np.uint32) << np.uint32(8)) | 200
    proto = rng.choice(
        np.array([PROTO_TCP, PROTO_UDP, PROTO_ICMP], dtype=np.uint8),
        size=count,
        p=np.array([0.7, 0.2, 0.1]),
    )
    packets = rng.integers(1, 6, size=count).astype(np.int64)
    per_packet = rng.choice(np.array([40, 44, 48, 120, 1500]), size=count)
    sends = rng.random(count) < 0.2  # some rows are outbound
    return FlowTable(
        src_ip=np.where(sends, dst_ip, src_ip).astype(np.uint32),
        dst_ip=np.where(sends, src_ip, dst_ip).astype(np.uint32),
        proto=proto,
        dport=rng.integers(1, 1000, size=count).astype(np.uint16),
        packets=packets,
        bytes=packets * per_packet,
        sender_asn=np.ones(count, dtype=np.int32),
        dst_asn=np.ones(count, dtype=np.int32),
        spoofed=np.zeros(count, dtype=bool),
    )


def run(flows, **config_kwargs):
    view = VantageDayView(vantage="V", day=0, flows=flows)
    return run_pipeline([view], ROUTING, PipelineConfig(**config_kwargs))


class TestInvariants:
    @given(flow_tables())
    @settings(max_examples=60, deadline=None)
    def test_funnel_monotone(self, flows):
        funnel = run(flows).funnel
        counts = [c for _, c in funnel.as_rows()]
        assert counts == sorted(counts, reverse=True)
        assert counts[0] >= 0

    @given(flow_tables())
    @settings(max_examples=60, deadline=None)
    def test_classes_partition_survivors(self, flows):
        result = run(flows)
        classified = (
            len(result.dark_blocks)
            + len(result.unclean_blocks)
            + len(result.gray_blocks)
        )
        assert classified == result.funnel.after_volume
        dark = set(result.dark_blocks.tolist())
        gray = set(result.gray_blocks.tolist())
        unclean = set(result.unclean_blocks.tolist())
        assert not (dark & gray or dark & unclean or gray & unclean)

    @given(flow_tables())
    @settings(max_examples=60, deadline=None)
    def test_dark_blocks_are_routed_and_public(self, flows):
        result = run(flows)
        assert ROUTING.routed_mask(result.dark_blocks).all()
        assert not SPECIAL_PURPOSE_REGISTRY.special_mask(result.dark_blocks).any()

    @given(flow_tables())
    @settings(max_examples=40, deadline=None)
    def test_tolerance_monotonicity(self, flows):
        # A larger spoofing tolerance can only add dark blocks.
        strict = set(run(flows, spoof_tolerance=0.0).dark_blocks.tolist())
        loose = set(run(flows, spoof_tolerance=100.0).dark_blocks.tolist())
        assert strict <= loose

    @given(flow_tables())
    @settings(max_examples=40, deadline=None)
    def test_volume_threshold_monotonicity(self, flows):
        tight = set(
            run(flows, volume_threshold_pkts_day=1.0).dark_blocks.tolist()
        )
        loose = set(
            run(flows, volume_threshold_pkts_day=1e12).dark_blocks.tolist()
        )
        assert tight <= loose

    @given(flow_tables())
    @settings(max_examples=40, deadline=None)
    def test_size_threshold_monotonicity(self, flows):
        small = set(run(flows, avg_size_threshold=40.0).dark_blocks.tolist())
        large = set(
            run(
                flows, avg_size_threshold=2000.0, ip_size_threshold=2000.0
            ).dark_blocks.tolist()
        )
        assert small <= large

    @given(flow_tables())
    @settings(max_examples=40, deadline=None)
    def test_deterministic(self, flows):
        first = run(flows)
        second = run(flows)
        assert np.array_equal(first.dark_blocks, second.dark_blocks)
        assert first.funnel == second.funnel

    @given(flow_tables(), flow_tables())
    @settings(max_examples=30, deadline=None)
    def test_pooling_only_disqualifies_observed(self, flows_a, flows_b):
        # Adding a second vantage can add new dark blocks (newly
        # observed) but never turn an existing *gray* block dark.
        solo = run(flows_a)
        view_a = VantageDayView(vantage="A", day=0, flows=flows_a)
        view_b = VantageDayView(vantage="B", day=0, flows=flows_b)
        pooled = run_pipeline([view_a, view_b], ROUTING, PipelineConfig())
        solo_gray = set(solo.gray_blocks.tolist())
        pooled_dark = set(pooled.dark_blocks.tolist())
        assert not (solo_gray & pooled_dark)

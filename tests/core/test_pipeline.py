"""Exact-semantics tests of the seven-step inference pipeline."""

import numpy as np
import pytest

from repro.core.pipeline import PipelineConfig, run_pipeline_accumulated
from repro.net.ipv4 import parse_ip
from repro.traffic.packets import PROTO_TCP, PROTO_UDP

from _factories import fold, ip, make_view, routing_for

# Blocks inside the announced test prefix 20.0.0.0/8.
BASE = parse_ip("20.0.0.0") >> 8
ROUTING = routing_for("20.0.0.0/8")


def run(rows, config=None, views=None):
    if views is None:
        views = [make_view(rows)]
    config = config or PipelineConfig()
    return run_pipeline_accumulated(
        fold(views, config.ignore_sources_from_asns), ROUTING, config
    )


def syn_row(block, host=1, packets=1, **overrides):
    row = {
        "dst_ip": ip(block, host),
        "proto": PROTO_TCP,
        "packets": packets,
        "bytes": packets * 40,
    }
    row.update(overrides)
    return row


class TestDarkClassification:
    def test_clean_syn_block_is_dark(self):
        result = run([syn_row(BASE)])
        assert result.dark_blocks.tolist() == [BASE]

    def test_multiple_ips_all_surviving(self):
        result = run([syn_row(BASE, host=h) for h in range(1, 6)])
        assert result.dark_blocks.tolist() == [BASE]

    def test_48_byte_option_syn_still_dark(self):
        # One option-SYN must not demote the block (per-IP slack).
        result = run(
            [syn_row(BASE, host=1), syn_row(BASE, host=2, bytes=48)]
        )
        assert result.dark_blocks.tolist() == [BASE]


class TestTcpFilter:
    def test_udp_only_block_removed(self):
        result = run([syn_row(BASE, proto=PROTO_UDP, bytes=100)])
        assert result.funnel.observed == 1
        assert result.funnel.after_tcp == 0
        assert len(result.dark_blocks) == 0

    def test_udp_only_ip_is_neutral(self):
        # A UDP-only address carries no TCP evidence either way: the
        # block stays dark as long as a TCP-surviving address exists.
        rows = [
            syn_row(BASE, host=1),
            syn_row(BASE, host=2, proto=PROTO_UDP, bytes=100),
        ]
        result = run(rows)
        assert result.dark_blocks.tolist() == [BASE]


class TestSizeFilter:
    def test_large_average_block_removed(self):
        result = run([syn_row(BASE, bytes=1500)])
        assert result.funnel.after_tcp == 1
        assert result.funnel.after_avg_size == 0

    def test_block_average_pooled_across_ips(self):
        # Two IPs at 40 B and one payload IP at 1500 B: block mean > 44.
        rows = [
            syn_row(BASE, host=1, packets=2),
            syn_row(BASE, host=2, packets=2),
            syn_row(BASE, host=3, bytes=1500),
        ]
        result = run(rows)
        assert result.funnel.after_avg_size == 0

    def test_payload_ip_in_small_block_makes_unclean(self):
        # Many SYNs keep the block mean small; one payload IP fails
        # individually -> unclean.
        rows = [syn_row(BASE, host=h, packets=10) for h in range(1, 10)]
        rows.append(syn_row(BASE, host=10, bytes=120))
        result = run(rows)
        assert result.unclean_blocks.tolist() == [BASE]

    def test_threshold_configurable(self):
        config = PipelineConfig(avg_size_threshold=100.0, ip_size_threshold=100.0)
        result = run([syn_row(BASE, bytes=80)], config=config)
        assert result.dark_blocks.tolist() == [BASE]


class TestSourceFilter:
    def test_source_block_becomes_gray(self):
        rows = [
            syn_row(BASE, host=1),
            {"src_ip": ip(BASE, 2), "dst_ip": ip(BASE + 500, 1)},
        ]
        result = run(rows)
        assert result.gray_blocks.tolist() == [BASE]
        assert BASE not in result.dark_blocks

    def test_sole_ip_both_directions_removed(self):
        # The only observed IP also sources traffic: no survivor left
        # in BASE (the outbound flow's destination block is a separate
        # observation that dies at the globally-routed step).
        rows = [
            syn_row(BASE, host=1),
            {"src_ip": ip(BASE, 1), "dst_ip": parse_ip("30.0.0.1")},
        ]
        result = run(rows)
        assert result.funnel.after_avg_size == 2
        assert result.funnel.after_source_unseen == 1
        assert result.funnel.after_routed == 0

    def test_tolerance_forgives_small_source(self):
        rows = [
            syn_row(BASE, host=1),
            {"src_ip": ip(BASE, 2), "dst_ip": parse_ip("30.0.0.1"), "packets": 1},
        ]
        config = PipelineConfig(spoof_tolerance=1.0)
        result = run(rows, config=config)
        assert result.dark_blocks.tolist() == [BASE]

    def test_tolerance_exceeded_still_gray(self):
        rows = [
            syn_row(BASE, host=1),
            {"src_ip": ip(BASE, 2), "dst_ip": ip(BASE + 500, 1), "packets": 5},
        ]
        config = PipelineConfig(spoof_tolerance=1.0)
        result = run(rows, config=config)
        assert result.gray_blocks.tolist() == [BASE]

    def test_per_view_tolerance_mapping(self):
        view = make_view(
            [
                syn_row(BASE, host=1),
                {"src_ip": ip(BASE, 2), "dst_ip": parse_ip("30.0.0.1")},
            ],
            vantage="V9",
            day=3,
        )
        config = PipelineConfig(spoof_tolerance={"V9": 2.0})
        result = run(None, config=config, views=[view])
        assert result.dark_blocks.tolist() == [BASE]
        assert result.applied_tolerances["V9"] == 2.0

    def test_ignored_sender_asns(self):
        rows = [
            syn_row(BASE, host=1),
            {
                "src_ip": ip(BASE, 2),
                "dst_ip": parse_ip("30.0.0.1"),
                "sender_asn": 666,
            },
        ]
        config = PipelineConfig(ignore_sources_from_asns=frozenset({666}))
        result = run(rows, config=config)
        assert result.dark_blocks.tolist() == [BASE]


class TestSpecialAndRouting:
    def test_reserved_block_removed(self):
        private = parse_ip("192.168.1.0") >> 8
        result = run([syn_row(private)])
        assert result.funnel.after_source_unseen == 1
        assert result.funnel.after_special == 0

    def test_unrouted_block_removed(self):
        unrouted = parse_ip("99.0.0.0") >> 8
        result = run([syn_row(unrouted)])
        assert result.funnel.after_special == 1
        assert result.funnel.after_routed == 0


class TestVolumeFilter:
    def test_high_volume_removed(self):
        config = PipelineConfig(volume_threshold_pkts_day=100.0)
        result = run([syn_row(BASE, packets=200)], config=config)
        assert result.funnel.after_routed == 1
        assert result.funnel.after_volume == 0
        assert result.volume_filtered_blocks.tolist() == [BASE]

    def test_sampling_factor_scales_estimate(self):
        # 20 sampled packets at factor 10 -> estimate 200 > threshold.
        view = make_view([syn_row(BASE, packets=20)], sampling_factor=10.0)
        config = PipelineConfig(volume_threshold_pkts_day=100.0)
        result = run(None, config=config, views=[view])
        assert len(result.dark_blocks) == 0

    def test_median_across_days(self):
        # One burst day out of three: the median saves the block.
        views = [
            make_view([syn_row(BASE, packets=500)], day=0),
            make_view([syn_row(BASE, packets=10)], day=1),
            make_view([syn_row(BASE, packets=10)], day=2),
        ]
        config = PipelineConfig(volume_threshold_pkts_day=100.0)
        result = run(None, config=config, views=views)
        assert result.dark_blocks.tolist() == [BASE]

    def test_majority_of_days_over_threshold_removed(self):
        views = [
            make_view([syn_row(BASE, packets=500)], day=d) for d in range(2)
        ] + [make_view([syn_row(BASE, packets=10)], day=2)]
        config = PipelineConfig(volume_threshold_pkts_day=100.0)
        result = run(None, config=config, views=views)
        assert len(result.dark_blocks) == 0

    def test_udp_counts_toward_volume(self):
        rows = [
            syn_row(BASE, packets=10),
            syn_row(BASE, host=2, proto=PROTO_UDP, packets=500, bytes=500 * 60),
        ]
        config = PipelineConfig(volume_threshold_pkts_day=100.0)
        result = run(rows, config=config)
        assert len(result.dark_blocks) == 0


@pytest.mark.parametrize("kernel", ["numpy", "native"])
class TestThresholdsAreInclusive:
    """A block exactly at a funnel bound stays dark, one step past it
    is removed: step 2 keeps a TCP mean equal to ``avg_size_threshold``
    and step 6 a daily volume estimate equal to
    ``volume_threshold_pkts_day`` (``<=``, not ``<``), under both
    kernels."""

    def classify(self, rows, kernel, sampling_factor=1.0, **config):
        views = [make_view(rows, sampling_factor=sampling_factor)]
        return run_pipeline_accumulated(
            fold(views, kernel=kernel), ROUTING, PipelineConfig(**config)
        )

    def test_volume_estimate_at_the_threshold_is_dark(self, kernel):
        # 25 sampled packets at factor 4: an estimate of exactly 100.
        at = self.classify(
            [syn_row(BASE, packets=25)], kernel, sampling_factor=4.0,
            volume_threshold_pkts_day=100.0,
        )
        assert at.dark_blocks.tolist() == [BASE]
        assert at.volume_filtered_blocks.tolist() == []
        past = self.classify(
            [syn_row(BASE, packets=25)], kernel, sampling_factor=4.0,
            volume_threshold_pkts_day=99.0,
        )
        assert past.dark_blocks.tolist() == []
        assert past.volume_filtered_blocks.tolist() == [BASE]

    def test_tcp_mean_at_the_size_threshold_is_dark(self, kernel):
        # 88 bytes over 2 packets: the block's TCP mean is exactly 44 B.
        rows = [syn_row(BASE, packets=2, bytes=88)]
        at = self.classify(rows, kernel, avg_size_threshold=44.0)
        assert at.funnel.after_avg_size == 1
        assert at.dark_blocks.tolist() == [BASE]
        past = self.classify(rows, kernel, avg_size_threshold=43.5)
        assert past.funnel.after_avg_size == 0
        assert past.dark_blocks.tolist() == []


class TestMultiView:
    def test_pooling_across_vantages(self):
        # Source sighting at one vantage disqualifies everywhere.
        views = [
            make_view([syn_row(BASE, host=1)], vantage="A"),
            make_view(
                [{"src_ip": ip(BASE, 2), "dst_ip": ip(BASE + 500, 1)}], vantage="B"
            ),
        ]
        result = run(None, views=views)
        assert result.gray_blocks.tolist() == [BASE]

    def test_union_of_observed_blocks(self):
        views = [
            make_view([syn_row(BASE)], vantage="A"),
            make_view([syn_row(BASE + 1)], vantage="B"),
        ]
        result = run(None, views=views)
        assert sorted(result.dark_blocks.tolist()) == [BASE, BASE + 1]

    def test_empty_views_rejected(self):
        with pytest.raises(ValueError):
            run(None, views=[])


class TestFunnelConsistency:
    def test_funnel_monotone(self):
        rows = [
            syn_row(BASE),
            syn_row(BASE + 1, bytes=1500),
            syn_row(BASE + 2, proto=PROTO_UDP),
            syn_row(parse_ip("192.168.0.0") >> 8),
        ]
        funnel = run(rows).funnel
        counts = [c for _, c in funnel.as_rows()]
        assert counts == sorted(counts, reverse=True)

    def test_classes_partition_candidates(self):
        rows = [
            syn_row(BASE, host=1),
            syn_row(BASE + 1, host=1),
            {"src_ip": ip(BASE + 1, 2), "dst_ip": ip(BASE + 900, 1)},
            syn_row(BASE + 2, host=1),
            syn_row(BASE + 2, host=2, proto=PROTO_UDP),
        ]
        result = run(rows)
        classified = (
            len(result.dark_blocks)
            + len(result.unclean_blocks)
            + len(result.gray_blocks)
        )
        assert classified == result.funnel.after_volume

    def test_classes_disjoint(self):
        rows = [syn_row(BASE + i, host=1) for i in range(20)]
        result = run(rows)
        dark = set(result.dark_blocks.tolist())
        unclean = set(result.unclean_blocks.tolist())
        gray = set(result.gray_blocks.tolist())
        assert not (dark & unclean or dark & gray or unclean & gray)

"""Tests for the Table-3 threshold tuning machinery."""

import numpy as np
import pytest

from repro.core.thresholds import (
    block_size_features,
    evaluate_thresholds,
    isp_inbound_tables,
    label_isp_blocks,
)
from repro.traffic.packets import PROTO_UDP

from _factories import fold, ip, make_flows, make_view


class TestLabeling:
    def test_dark_vs_active_labels(self):
        isp_blocks = np.array([10, 11, 12])
        views = [
            make_view(
                [
                    {"dst_ip": ip(10)},                      # receives only
                    {"dst_ip": ip(11)},
                    {"src_ip": ip(11), "dst_ip": ip(99), "packets": 2000},
                    {"dst_ip": ip(12)},
                    {"src_ip": ip(12), "dst_ip": ip(99), "packets": 5},
                ],
                vantage="ISP",
            )
        ]
        labels = label_isp_blocks(fold(views), isp_blocks, active_min_week_packets=1000)
        assert labels.dark_blocks.tolist() == [10]
        assert labels.active_blocks.tolist() == [11]
        assert labels.excluded_blocks.tolist() == [12]
        assert labels.receiving_blocks.tolist() == [10, 11, 12]

    def test_activity_pooled_across_days(self):
        isp_blocks = np.array([10])
        views = [
            make_view(
                [
                    {"dst_ip": ip(10)},
                    {"src_ip": ip(10), "dst_ip": ip(99), "packets": 600},
                ],
                day=d,
            )
            for d in range(2)
        ]
        labels = label_isp_blocks(fold(views), isp_blocks, active_min_week_packets=1000)
        assert labels.active_blocks.tolist() == [10]

    def test_outside_blocks_ignored(self):
        views = [make_view([{"dst_ip": ip(50)}])]
        labels = label_isp_blocks(fold(views), np.array([10]), 1000)
        assert len(labels.receiving_blocks) == 0


class TestFeatures:
    def test_mean_and_median(self):
        flows = make_flows(
            [
                {"dst_ip": ip(10), "packets": 9, "bytes": 9 * 40},
                {"dst_ip": ip(10, 2), "packets": 1, "bytes": 1500},
            ]
        )
        features = block_size_features([flows], np.array([10]))
        assert features.blocks.tolist() == [10]
        assert features.mean_size[0] == pytest.approx((9 * 40 + 1500) / 10)
        assert features.median_size[0] == 40.0

    def test_udp_excluded(self):
        flows = make_flows(
            [
                {"dst_ip": ip(10), "packets": 1, "bytes": 40},
                {"dst_ip": ip(10), "proto": PROTO_UDP, "packets": 100, "bytes": 10000},
            ]
        )
        features = block_size_features([flows], np.array([10]))
        assert features.mean_size[0] == 40.0

    def test_restricted_to_requested_blocks(self):
        flows = make_flows([{"dst_ip": ip(10)}, {"dst_ip": ip(11)}])
        features = block_size_features([flows], np.array([10]))
        assert features.blocks.tolist() == [10]


class TestEvaluation:
    def make_setup(self):
        # Two dark blocks (small sizes) and two active (one with small
        # median but large mean -> the median/mean contrast).
        flows = make_flows(
            [
                {"dst_ip": ip(10), "packets": 10, "bytes": 400},
                {"dst_ip": ip(11), "packets": 10, "bytes": 400},
                # active with many ACKs (median 40) but large mean
                {"dst_ip": ip(20), "packets": 6, "bytes": 6 * 40},
                {"dst_ip": ip(20, 2), "packets": 4, "bytes": 4 * 1500},
                # plainly active
                {"dst_ip": ip(21), "packets": 10, "bytes": 10 * 1500},
                # an excluded weak-activity block
                {"dst_ip": ip(30), "packets": 10, "bytes": 400},
            ]
        )
        features = block_size_features([flows], np.array([10, 11, 20, 21, 30]))

        class Labels:
            dark_blocks = np.array([10, 11])
            active_blocks = np.array([20, 21])
            excluded_blocks = np.array([30])
            receiving_blocks = np.array([10, 11, 20, 21, 30])

        return features, Labels()

    def test_mean_feature_perfect_here(self):
        features, labels = self.make_setup()
        rows = evaluate_thresholds(features, labels, thresholds=(44.0,))
        mean_row = next(r for r in rows if r.feature == "average")
        assert mean_row.false_positive_rate == 0.0
        assert mean_row.false_negative_rate == 0.0
        assert mean_row.f1_score == 1.0

    def test_median_feature_has_false_positive(self):
        features, labels = self.make_setup()
        rows = evaluate_thresholds(features, labels, thresholds=(44.0,))
        median_row = next(r for r in rows if r.feature == "median")
        # Block 20's median is 40 (ACK-heavy) -> classified dark though active.
        assert median_row.false_positive_rate == pytest.approx(0.5)

    def test_excluded_blocks_not_evaluated(self):
        features, labels = self.make_setup()
        rows = evaluate_thresholds(features, labels, thresholds=(44.0,))
        # 4 evaluated blocks -> rates are multiples of 1/2 per class.
        for row in rows:
            assert row.true_positive_rate + row.false_negative_rate == pytest.approx(1.0)

    def test_all_thresholds_evaluated(self):
        features, labels = self.make_setup()
        rows = evaluate_thresholds(features, labels)
        assert len(rows) == 8  # 2 features x 4 default thresholds

    def test_isp_inbound_tables(self):
        views = [make_view([{"dst_ip": ip(10)}, {"dst_ip": ip(50)}])]
        tables = isp_inbound_tables(views, np.array([10]))
        assert len(tables) == 1
        assert tables[0].dst_blocks().tolist() == [10]

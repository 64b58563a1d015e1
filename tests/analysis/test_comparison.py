"""Tests for the port-statistics comparison (paper §4.3 evaluation (ii))."""

import pytest

from repro.analysis.comparison import compare_port_statistics

from _factories import ip, make_flows


def flows_for(port_counts):
    rows = []
    for port, packets in port_counts.items():
        rows.append({"dst_ip": ip(1), "dport": port, "packets": packets})
    return make_flows(rows)


class TestComparison:
    def test_identical_distributions(self):
        flows = flows_for({23: 100, 80: 50, 443: 10})
        comparison = compare_port_statistics(flows, flows, top_k=3)
        assert comparison.overlap == 3
        assert comparison.spearman_rho == pytest.approx(1.0)
        assert comparison.l1_distance == pytest.approx(0.0)

    def test_disjoint_distributions(self):
        left = flows_for({23: 100})
        right = flows_for({9999: 100})
        comparison = compare_port_statistics(left, right, top_k=1)
        assert comparison.overlap == 0
        assert comparison.l1_distance == pytest.approx(1.0)

    def test_same_ports_inverted_ranks(self):
        left = flows_for({23: 100, 80: 10})
        right = flows_for({23: 10, 80: 100})
        comparison = compare_port_statistics(left, right, top_k=2)
        assert comparison.overlap == 2
        assert comparison.spearman_rho == pytest.approx(-1.0)

    def test_partial_overlap(self):
        left = flows_for({23: 100, 80: 50})
        right = flows_for({23: 80, 22: 40})
        comparison = compare_port_statistics(left, right, top_k=2)
        assert comparison.overlap == 1
        assert 0.0 < comparison.l1_distance < 1.0

    def test_world_meta_vs_telescope(
        self, integration_world, integration_observatory
    ):
        """The paper's finding: meta-telescope port stats closely match
        the operational telescopes'."""
        from repro.core import MetaTelescope
        from repro.core.pipeline import PipelineConfig

        world = integration_world
        telescope = MetaTelescope(
            collector=world.collector,
            unrouted_baseline=world.unrouted_baseline_blocks,
            config=PipelineConfig(
                volume_threshold_pkts_day=world.config.volume_threshold_pkts_day
            ),
        )
        views = integration_observatory.all_ixp_views(num_days=1)
        result = telescope.infer(views, use_spoofing_tolerance=True)
        captured = telescope.captured_traffic(views, result)
        tus1 = integration_observatory.day(0).telescope_views["TUS1"].flows
        comparison = compare_port_statistics(captured, tus1, top_k=10)
        assert comparison.overlap >= 7
        assert comparison.spearman_rho > 0.5
        assert comparison.l1_distance < 0.5

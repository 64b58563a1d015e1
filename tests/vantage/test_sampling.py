"""Tests for vantage-day views and the per-/24 aggregates they fold into.

A view keeps no aggregate of its own; its per-block statistics are read
off the accumulator the engine folds it into.
"""

import pytest

from repro.traffic.packets import PROTO_TCP, PROTO_UDP

from _factories import fold, ip, make_view


class TestBlockAggregates:
    def test_tcp_udp_split(self):
        view = make_view(
            [
                {"dst_ip": ip(5), "proto": PROTO_TCP, "packets": 3, "bytes": 120},
                {"dst_ip": ip(5, 2), "proto": PROTO_UDP, "packets": 2, "bytes": 200},
            ]
        )
        finalized = fold([view]).finalize()
        assert finalized.dst_ips.tolist() == [ip(5), ip(5, 2)]
        assert finalized.ip_tcp_pkts_est.tolist() == [3, 0]
        assert finalized.ip_tcp_bytes_est.tolist() == [120, 0]
        assert finalized.vol_blocks.tolist() == [5]
        assert finalized.vol_median_est.tolist() == [5]

    def test_per_ip_stats(self):
        view = make_view(
            [
                {"dst_ip": ip(5, 1), "packets": 1, "bytes": 40},
                {"dst_ip": ip(5, 1), "packets": 1, "bytes": 48},
                {"dst_ip": ip(5, 2), "packets": 2, "bytes": 80},
            ],
            sampling_factor=3.0,
        )
        finalized = fold([view]).finalize()
        assert finalized.dst_ips.tolist() == [ip(5, 1), ip(5, 2)]
        assert finalized.ip_tcp_pkts_est.tolist() == [6, 6]
        assert finalized.ip_tcp_bytes_est.tolist() == [264, 240]

    def test_source_stats(self):
        view = make_view(
            [
                {"src_ip": ip(9, 1), "packets": 4},
                {"src_ip": ip(9, 2), "packets": 1},
                {"src_ip": ip(8, 1), "packets": 2},
            ],
            vantage="V",
            sampling_factor=10.0,
        )
        accumulator = fold([view])
        # Source sums stay sampled: the tolerance and the labels count
        # the packets the vantage exported, not estimates.
        blocks, packets = accumulator.vantage_source_blocks()["V"]
        assert blocks.tolist() == [8, 9]
        assert packets.tolist() == [2, 5]
        # Per source address only the sighting is kept: one sorted key
        # set per day.
        finalized = accumulator.finalize()
        assert [keys.tolist() for keys in finalized.src_ips_by_day] == [
            [ip(8, 1), ip(9, 1), ip(9, 2)]
        ]

    def test_multiple_blocks_sorted(self):
        view = make_view([{"dst_ip": ip(20)}, {"dst_ip": ip(3)}])
        assert fold([view]).observed_blocks().tolist() == [3, 20]

    def test_empty_flows(self):
        accumulator = fold([make_view([], vantage="V")])
        assert len(accumulator.observed_blocks()) == 0
        blocks, _ = accumulator.vantage_source_blocks()["V"]
        assert len(blocks) == 0


class TestVantageDayView:
    def test_decimated_scales_factor(self, rng):
        view = make_view([{"packets": 1000}], sampling_factor=4.0)
        decimated = view.decimated(2, rng)
        assert decimated.sampling_factor == 8.0
        assert decimated.day == view.day
        assert decimated.vantage == view.vantage

    def test_decimated_thins(self, rng):
        view = make_view([{"packets": 10000}])
        decimated = view.decimated(10, rng)
        assert decimated.flows.total_packets() == pytest.approx(1000, rel=0.2)

    def test_default_sampling_factor(self):
        assert make_view([{}]).sampling_factor == 1.0

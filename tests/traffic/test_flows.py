"""Tests for the columnar flow table."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traffic.flows import FlowTable, aggregate_sums, weighted_median
from repro.traffic.packets import PROTO_TCP, PROTO_UDP

from _factories import ip, make_flows


class TestConstruction:
    def test_empty(self):
        table = FlowTable.empty()
        assert len(table) == 0
        assert table.total_packets() == 0

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            FlowTable(
                src_ip=np.zeros(2, dtype=np.uint32),
                dst_ip=np.zeros(1, dtype=np.uint32),
                proto=np.zeros(2, dtype=np.uint8),
                dport=np.zeros(2, dtype=np.uint16),
                packets=np.ones(2, dtype=np.int64),
                bytes=np.full(2, 40, dtype=np.int64),
                sender_asn=np.ones(2, dtype=np.int32),
                dst_asn=np.ones(2, dtype=np.int32),
            )

    def test_spoofed_defaults_false(self):
        table = make_flows([{}])
        assert not table.spoofed[0]

    def test_dtype_coercion(self):
        table = FlowTable(
            src_ip=np.array([1]),
            dst_ip=np.array([2]),
            proto=np.array([6]),
            dport=np.array([80]),
            packets=np.array([1]),
            bytes=np.array([40]),
            sender_asn=np.array([1]),
            dst_asn=np.array([1]),
        )
        assert table.src_ip.dtype == np.uint32

    def test_concat(self):
        a = make_flows([{"packets": 1}])
        b = make_flows([{"packets": 2}, {"packets": 3}])
        merged = FlowTable.concat([a, b])
        assert len(merged) == 3
        assert merged.total_packets() == 6

    def test_concat_skips_empty(self):
        merged = FlowTable.concat([FlowTable.empty(), make_flows([{}])])
        assert len(merged) == 1

    def test_concat_nothing(self):
        assert len(FlowTable.concat([])) == 0


class TestSelection:
    def test_tcp_filter(self):
        table = make_flows([{"proto": PROTO_TCP}, {"proto": PROTO_UDP}])
        assert len(table.tcp()) == 1

    def test_toward_blocks(self):
        table = make_flows(
            [{"dst_ip": ip(100)}, {"dst_ip": ip(200)}, {"dst_ip": ip(100, 9)}]
        )
        subset = table.toward_blocks(np.array([100]))
        assert len(subset) == 2

    def test_block_columns(self):
        table = make_flows([{"src_ip": ip(7, 3), "dst_ip": ip(9, 4)}])
        assert table.src_blocks()[0] == 7
        assert table.dst_blocks()[0] == 9


class TestThinning:
    def test_probability_one_identity(self, rng):
        table = make_flows([{"packets": 5}])
        assert table.thin(1.0, rng) is table

    def test_probability_zero_empty(self, rng):
        table = make_flows([{"packets": 5}])
        assert len(table.thin(0.0, rng)) == 0

    def test_invalid_probability(self, rng):
        with pytest.raises(ValueError):
            make_flows([{}]).thin(1.5, rng)

    def test_thinning_reduces_packets(self, rng):
        table = make_flows([{"packets": 1000, "bytes": 40000}])
        thinned = table.thin(0.1, rng)
        assert 0 < thinned.total_packets() < 1000

    def test_thinned_bytes_scaled(self, rng):
        table = make_flows([{"packets": 1000, "bytes": 1000 * 100}])
        thinned = table.thin(0.5, rng)
        per_packet = thinned.bytes[0] / thinned.packets[0]
        assert per_packet == pytest.approx(100, rel=0.05)

    def test_thinned_bytes_at_least_header(self, rng):
        table = make_flows([{"packets": 4, "bytes": 160}])
        thinned = table.thin(0.5, rng)
        if len(thinned):
            assert (thinned.bytes >= thinned.packets * 20).all()

    def test_decimate_matches_thin_semantics(self, rng):
        table = make_flows([{"packets": 10000}])
        decimated = table.decimate(10, rng)
        assert decimated.total_packets() == pytest.approx(1000, rel=0.2)

    def test_decimate_validates_factor(self, rng):
        with pytest.raises(ValueError):
            make_flows([{}]).decimate(0, rng)

    @given(st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=20)
    def test_thinning_unbiased(self, probability):
        rng = np.random.default_rng(5)
        table = make_flows([{"packets": 2000}] * 50)
        thinned = table.thin(probability, rng)
        expected = 2000 * 50 * probability
        assert thinned.total_packets() == pytest.approx(expected, rel=0.1)


class TestAggregations:
    def test_aggregate_sums(self):
        keys = np.array([3, 1, 3, 1, 2])
        values = np.array([10, 1, 10, 1, 5])
        unique, (sums,) = aggregate_sums(keys, values)
        assert unique.tolist() == [1, 2, 3]
        assert sums.tolist() == [2, 5, 20]

    def test_aggregate_multiple_columns(self):
        keys = np.array([1, 1])
        unique, (a, b) = aggregate_sums(keys, np.array([1, 2]), np.array([10, 20]))
        assert a.tolist() == [3]
        assert b.tolist() == [30]

    def test_weighted_median_simple(self):
        values = np.array([40.0, 1500.0])
        weights = np.array([9.0, 1.0])
        assert weighted_median(values, weights) == 40.0

    def test_weighted_median_balanced(self):
        values = np.array([40.0, 100.0])
        weights = np.array([1.0, 1.0])
        assert weighted_median(values, weights) in (40.0, 100.0)

    def test_weighted_median_empty_raises(self):
        with pytest.raises(ValueError):
            weighted_median(np.array([]), np.array([]))

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=1, max_value=1e4),
                st.floats(min_value=0.1, max_value=100),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=40)
    def test_weighted_median_is_in_sample(self, pairs):
        values = np.array([v for v, _ in pairs])
        weights = np.array([w for _, w in pairs])
        median = weighted_median(values, weights)
        assert median in values

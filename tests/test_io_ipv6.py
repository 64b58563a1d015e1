"""IPv6 flow-table and prefix-list serialisation round-trips."""

import numpy as np
import pytest

from repro.flowpack import FlowpackArchive
from repro.io import (
    convert_flows,
    prefix_list_text,
    read_flows_csv,
    read_prefix_list,
    write_flows_archive,
    write_flows_csv,
    write_prefix_list,
)
from repro.net.family import IPV6
from repro.traffic.flows import FLOW_COLUMNS_V6, FlowTable


def random_v6_flows(rng: np.random.Generator, rows: int) -> FlowTable:
    return FlowTable(
        # Engine keys stay int64-safe (< 2**63)...
        src_ip=rng.integers(0, 2**63, rows, dtype=np.uint64),
        dst_ip=rng.integers(0, 2**63, rows, dtype=np.uint64),
        proto=rng.integers(0, 256, rows, dtype=np.uint8),
        dport=rng.integers(0, 2**16, rows, dtype=np.uint16),
        packets=rng.integers(0, 2**40, rows, dtype=np.int64),
        bytes=rng.integers(0, 2**45, rows, dtype=np.int64),
        sender_asn=rng.integers(-1, 2**31 - 1, rows, dtype=np.int32),
        dst_asn=rng.integers(-1, 2**31 - 1, rows, dtype=np.int32),
        spoofed=rng.integers(0, 2, rows).astype(bool),
        # ...but the lo side columns use the full uint64 range, so the
        # round-trip must not pass them through int64.
        src_ip_lo=rng.integers(0, 2**64, rows, dtype=np.uint64),
        dst_ip_lo=rng.integers(0, 2**64, rows, dtype=np.uint64),
        family="ipv6",
    )


def tables_equal(a: FlowTable, b: FlowTable) -> bool:
    return (
        a.family == b.family
        and len(a) == len(b)
        and all(
            np.array_equal(getattr(a, name), getattr(b, name))
            for name in FLOW_COLUMNS_V6
        )
    )


@pytest.fixture()
def flows():
    rng = np.random.default_rng(11)
    table = random_v6_flows(rng, 150)
    assert table.dst_ip_lo.max() > 2**63, "fixture should stress uint64 range"
    return table


class TestFlowRoundTrips:
    def test_csv(self, flows, tmp_path):
        path = tmp_path / "v6.csv"
        write_flows_csv(flows, path)
        assert tables_equal(read_flows_csv(path), flows)

    def test_flowpack(self, flows, tmp_path):
        path = tmp_path / "v6.fpk"
        write_flows_archive(flows, path, chunk_rows=32)
        assert tables_equal(FlowpackArchive(path).read_all(), flows)

    def test_empty_v6_table(self, tmp_path):
        empty = FlowTable.empty("ipv6")
        path = tmp_path / "empty.fpk"
        write_flows_archive(empty, path)
        loaded = FlowpackArchive(path).read_all()
        assert loaded.family == "ipv6" and len(loaded) == 0

    def test_convert_preserves_family_both_ways(self, flows, tmp_path):
        csv = tmp_path / "v6.csv"
        pack = tmp_path / "v6.fpk"
        back = tmp_path / "back.csv"
        write_flows_csv(flows, csv)
        assert convert_flows(csv, pack, to="flowpack", chunk_rows=40) == len(flows)
        assert tables_equal(FlowpackArchive(pack).read_all(), flows)
        assert convert_flows(pack, back, to="csv", chunk_rows=40) == len(flows)
        assert tables_equal(read_flows_csv(back), flows)


class TestPrefixLists:
    SITES = [
        "2001:db8::/48",
        "2001:db8:1::/48",
        "2001:db8:2::/48",
        "2001:db8:10::/48",
    ]

    def blocks(self):
        return np.array(
            [IPV6.parse_prefix(p).first_block() for p in self.SITES],
            dtype=np.int64,
        )

    def test_write_read_roundtrip(self, tmp_path):
        path = tmp_path / "v6.prefixes"
        write_prefix_list(self.blocks(), path, comment="v6 dark", family=IPV6)
        assert np.array_equal(read_prefix_list(path, family=IPV6), self.blocks())

    def test_aggregated_list_reads_back_to_same_blocks(self, tmp_path):
        path = tmp_path / "v6-agg.prefixes"
        write_prefix_list(self.blocks(), path, aggregate=True, family=IPV6)
        assert np.array_equal(read_prefix_list(path, family=IPV6), self.blocks())

    def test_aggregate_collapses_contiguous_sites(self):
        text = prefix_list_text(self.blocks(), aggregate=True, family=IPV6)
        lines = [line for line in text.splitlines() if line]
        # 2001:db8::/48 + :1::/48 collapse into a /47; :2:: and :10::
        # stay alone.
        assert lines == ["2001:db8::/47", "2001:db8:2::/48", "2001:db8:10::/48"]

"""Golden flow CSV files: the interchange format pinned by bytes.

``tests/fixtures/csv/`` holds two small flow exports written from fixed
arrays by :func:`repro.io.write_flows_csv`:

* ``flows_v4.csv`` — IPv4 rows;
* ``flows_v6.csv`` — IPv6 rows (uint64 keys and ``*_ip_lo`` columns).

Each file opens with a row at every column's dtype minimum and one at
its maximum (2**64 - 1 in the v6 uint64 columns, the int64 extremes in
``packets`` and ``bytes``), then a row whose ASNs are the -1 of an
unknown AS, then rows drawn over each column's range.

Two claims are checked against them:

(a) today's writer reproduces each file byte for byte from the same
    arrays, so a writer change cannot slip through a round trip;
(b) every CSV flow reader — :func:`read_flows_csv`,
    :func:`iter_flows_csv` at several ``chunk_rows`` and block sizes,
    and :func:`read_flows_csv_lenient` — decodes each file to pinned row
    counts and per-column sums and CRC-32s, entirely on the plain-block
    path (no row reaches the per-row reader), once with the native
    parser and once with it disabled (the ``np.loadtxt`` reference).

Only a deliberate format change rewrites these files, with::

    PYTHONPATH=src python tests/test_csv_golden.py

The arrays come from a fixed 64-bit LCG in pure Python, not a numpy
random stream, so a numpy upgrade cannot change them.
"""

from __future__ import annotations

import zlib
from pathlib import Path

import numpy as np
import pytest

import repro.io
from repro.core import kernels
from repro.core.kernels import DISABLE_NATIVE_ENV, native_provider
from repro.io import (
    iter_flows_csv,
    read_flows_csv,
    read_flows_csv_lenient,
    write_flows_csv,
)
from repro.net.family import FAMILY_IPV4, FAMILY_IPV6
from repro.traffic.flows import FlowTable, flow_columns

FIXTURES = Path(__file__).parent / "fixtures" / "csv"


def _draws(seed: int, rows: int, bound: int) -> list[int]:
    """``rows`` integers in ``[0, bound)`` from a 64-bit LCG (Knuth's
    MMIX constants); a bound past 2**53 takes two draws per value."""
    state, out = seed, []
    for _ in range(rows):
        value = 0
        for _ in range(1 if bound <= 2**53 else 2):
            state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
            value = (value << 53) | (state >> 11)
        out.append(value % bound)
    return out


def _bounds(dtype) -> tuple[int, int]:
    if dtype == bool:
        return 0, 1
    info = np.iinfo(dtype)
    return int(info.min), int(info.max)


def _flows(family: str, rows: int, seed: int) -> FlowTable:
    """Bound rows, an unknown-ASN row, then ``rows`` drawn rows."""
    columns = {}
    for index, (name, dtype) in enumerate(flow_columns(family).items()):
        low, high = _bounds(dtype)
        unknown = -1 if name.endswith("_asn") else low
        drawn = [low + v for v in _draws(seed + index, rows, high - low + 1)]
        columns[name] = np.array([low, high, unknown, *drawn], dtype=dtype)
    return FlowTable(**columns, family=family)


#: Fixture name -> the table written to it.
TABLES = {
    "flows_v4.csv": lambda: _flows(FAMILY_IPV4, 9, seed=140),
    "flows_v6.csv": lambda: _flows(FAMILY_IPV6, 9, seed=160),
}

#: What every reader must decode from each fixture: the family, the row
#: count, and each column's Python-int sum and the CRC-32 of its bytes.
EXPECTED = {
    "flows_v4.csv": {
        "family": FAMILY_IPV4,
        "rows": 12,
        "sums": {
            "src_ip": 26139074859,
            "dst_ip": 22063683380,
            "proto": 1853,
            "dport": 394056,
            "packets": -18932583625604140013,
            "bytes": -2698635707342153163,
            "sender_asn": -460757660,
            "dst_asn": -241181840,
            "spoofed": 6,
        },
        "crcs": {
            "src_ip": 0x99BCCA74,
            "dst_ip": 0xC7453555,
            "proto": 0x26CE27CE,
            "dport": 0xA0E13E51,
            "packets": 0x3A3C1D88,
            "bytes": 0x24CE814F,
            "sender_asn": 0x0F5F1246,
            "dst_asn": 0x754801D2,
            "spoofed": 0xB8AEAA5E,
        },
    },
    "flows_v6.csv": {
        "family": FAMILY_IPV6,
        "rows": 12,
        "sums": {
            "src_ip": 112160756111122060859,
            "dst_ip": 91528237479729167453,
            "proto": 1798,
            "dport": 343056,
            "packets": -25700543436323426621,
            "bytes": -9448581119551957785,
            "sender_asn": -4659175891,
            "dst_asn": -144632779,
            "spoofed": 3,
            "src_ip_lo": 110944536364936277361,
            "dst_ip_lo": 127205505880962487187,
        },
        "crcs": {
            "src_ip": 0x48895855,
            "dst_ip": 0x8C9250FE,
            "proto": 0x14B94201,
            "dport": 0x3C3EB78C,
            "packets": 0xB4891655,
            "bytes": 0x7E5A4F4C,
            "sender_asn": 0x4FE94521,
            "dst_asn": 0xCC2AE7FB,
            "spoofed": 0x4B913081,
            "src_ip_lo": 0x438FFC82,
            "dst_ip_lo": 0x206DD2D3,
        },
    },
}


def _decoded(table: FlowTable) -> dict:
    return {
        "family": table.family,
        "rows": len(table),
        "sums": {
            name: sum(getattr(table, name).tolist()) for name in table.columns()
        },
        "crcs": {
            name: zlib.crc32(np.ascontiguousarray(getattr(table, name)))
            for name in table.columns()
        },
    }


@pytest.mark.parametrize("name", sorted(TABLES))
def test_writer_reproduces_fixture_bytes(tmp_path, name):
    path = tmp_path / name
    write_flows_csv(TABLES[name](), path)
    assert path.read_bytes() == (FIXTURES / name).read_bytes()


@pytest.fixture(params=["native", "reference"])
def provider(request, monkeypatch):
    """The plain-block parser under test: the native one, or the
    ``np.loadtxt`` reference with the native provider disabled."""
    if request.param == "native":
        if native_provider() is None:
            pytest.skip("native provider unavailable")
        yield request.param
        return
    # monkeypatch restores the environment and the loaded module handle.
    monkeypatch.setenv(DISABLE_NATIVE_ENV, "1")
    monkeypatch.setattr(kernels, "_HANDLE", None)
    assert native_provider() is None
    yield request.param


@pytest.fixture()
def no_row_path(monkeypatch):
    """Fail if any row of the file reaches the per-row reader."""
    parsed_rows = repro.io._parsed_rows

    def forbidden(*args):
        for row in parsed_rows(*args):
            raise AssertionError(f"row {row} took the per-row path")
            yield row

    monkeypatch.setattr(repro.io, "_parsed_rows", forbidden)


@pytest.mark.parametrize("block_bytes", [None, 256])
@pytest.mark.parametrize("name", sorted(TABLES))
def test_readers_decode_fixture(
    provider, no_row_path, monkeypatch, name, block_bytes
):
    if block_bytes is not None:
        # Several blocks per file: a cut between every few lines.
        monkeypatch.setattr(repro.io, "_BLOCK_BYTES", block_bytes)
    path = FIXTURES / name
    expected = EXPECTED[name]
    assert _decoded(read_flows_csv(path)) == expected
    table, report = read_flows_csv_lenient(path)
    assert _decoded(table) == expected
    assert report.ok() and report.good_rows == report.total_rows == 12
    for chunk_rows in (1, 5, 12, 64):
        chunks = list(iter_flows_csv(path, chunk_rows=chunk_rows))
        sizes = [len(chunk) for chunk in chunks]
        assert sizes == [
            min(chunk_rows, expected["rows"] - start)
            for start in range(0, expected["rows"], chunk_rows)
        ]
        assert _decoded(FlowTable.concat(chunks)) == expected


def test_fixtures_stay_small():
    sizes = {path.name: path.stat().st_size for path in FIXTURES.glob("*.csv")}
    assert sorted(sizes) == sorted(TABLES)
    assert sum(sizes.values()) < 4096


if __name__ == "__main__":
    FIXTURES.mkdir(parents=True, exist_ok=True)
    for fixture, table in TABLES.items():
        write_flows_csv(table(), FIXTURES / fixture)
        print(FIXTURES / fixture, (FIXTURES / fixture).stat().st_size)

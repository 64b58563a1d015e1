"""Golden flowpack files: the on-disk format pinned by bytes.

``tests/fixtures/flowpack/`` holds three small archives written from
fixed arrays:

* ``flows_v4.fpk`` — a two-segment IPv4 flow archive with vantage-day
  metadata (the shape :func:`repro.vantage.archive.export_view` writes);
* ``flows_v6.fpk`` — a two-segment IPv6 flow archive;
* ``table.fpk`` — a one-segment generic table archive.

Two claims are checked against them:

(a) today's writer reproduces each file byte for byte from the same
    arrays, so a writer change cannot slip through a round trip;
(b) today's reader decodes each file to pinned row counts, stored
    CRC-32s, ``meta``, family and per-column sums, so a reader change
    cannot silently orphan files already on disk.

The damage matrix truncates ``flows_v4.fpk`` at every length and flips
every byte of its file header and segment headers.

A deliberate format change bumps ``FLOWPACK_VERSION`` and keeps a reader
for the old version, or says that old files stop loading; only then are
these files rewritten, with::

    PYTHONPATH=src python tests/test_flowpack_golden.py

The arrays come from a fixed 64-bit LCG in pure Python, not a numpy
random stream, so a numpy upgrade cannot change them.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.flowpack import (
    FlowpackArchive,
    FlowpackError,
    TableArchive,
    read_flows_archive_lenient,
    write_flows_archive,
    write_table_archive,
)
from repro.net.family import FAMILY_IPV4, FAMILY_IPV6
from repro.traffic.flows import FlowTable
from repro.world.capture_cache import CaptureCache

FIXTURES = Path(__file__).parent / "fixtures" / "flowpack"


def _draws(seed: int, rows: int, bound: int) -> list[int]:
    """``rows`` integers in ``[0, bound)`` from a 64-bit LCG (Knuth's
    MMIX constants)."""
    state, out = seed, []
    for _ in range(rows):
        state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
        out.append((state >> 11) % bound)
    return out


def _column(seed: int, rows: int, dtype, bound: int, offset: int = 0):
    return np.array(
        [value - offset for value in _draws(seed, rows, bound)], dtype=dtype
    )


def _flows(family: str, rows: int, seed: int) -> FlowTable:
    key = np.uint64 if family == FAMILY_IPV6 else np.uint32
    columns = {
        "src_ip": _column(seed + 1, rows, key, 2**32),
        "dst_ip": _column(seed + 2, rows, key, 2**32),
        "proto": _column(seed + 3, rows, np.uint8, 256),
        "dport": _column(seed + 4, rows, np.uint16, 2**16),
        "packets": _column(seed + 5, rows, np.int64, 2**40),
        "bytes": _column(seed + 6, rows, np.int64, 2**45),
        "sender_asn": _column(seed + 7, rows, np.int32, 2**31, offset=1),
        "dst_asn": _column(seed + 8, rows, np.int32, 2**31, offset=1),
        "spoofed": _column(seed + 9, rows, bool, 2),
    }
    if family == FAMILY_IPV6:
        columns["src_ip_lo"] = _column(seed + 10, rows, np.uint64, 2**53)
        columns["dst_ip_lo"] = _column(seed + 11, rows, np.uint64, 2**53)
    return FlowTable(**columns, family=family)


def _table(rows: int, seed: int) -> dict[str, np.ndarray]:
    return {
        "ids": _column(seed + 1, rows, np.int64, 2**40, offset=2**39),
        "score": _column(seed + 2, rows, np.int64, 2**20) / 2.0**20,
        "port": _column(seed + 3, rows, np.uint16, 2**16),
        "flag": _column(seed + 4, rows, bool, 2),
    }


#: Fixture name -> writer call; each writes one golden file to a path.
WRITERS = {
    "flows_v4.fpk": lambda path: write_flows_archive(
        _flows(FAMILY_IPV4, 7, seed=40),
        path,
        meta={"vantage": "CE1", "day": 3, "sampling_factor": 16.0},
        chunk_rows=4,
    ),
    "flows_v6.fpk": lambda path: write_flows_archive(
        _flows(FAMILY_IPV6, 6, seed=60),
        path,
        meta={"vantage": "V6A", "day": 1, "sampling_factor": 1.0},
        chunk_rows=3,
    ),
    "table.fpk": lambda path: write_table_archive(
        _table(5, seed=80), path, meta={"kind": "golden-table", "version": 2}
    ),
}

#: What the reader must decode from each fixture: the schema's family
#: (None for a generic table), ``meta``, rows and stored CRC-32s per
#: segment, and the Python-int (or float) sum of each column.
EXPECTED = {
    "flows_v4.fpk": {
        "family": FAMILY_IPV4,
        "meta": {"day": 3, "sampling_factor": 16.0, "vantage": "CE1"},
        "rows": [4, 3],
        "checksums": [
            [0x0298CFC6, 0xC3311F76, 0x4D067575, 0x4DBF6C6C, 0x1C24CBAD,
             0x3734B6D2, 0x86EB529B, 0x286DC23F, 0xEEFF88EF],
            [0x1229C3CF, 0x38C44B77, 0x94884DF0, 0xDE96C1DE, 0x8BF6186C,
             0x5BBC78A0, 0xC1DF1921, 0x8F6434D4, 0xFE83B325],
        ],
        "sums": {
            "src_ip": 12064195573,
            "dst_ip": 11780772308,
            "proto": 690,
            "dport": 191889,
            "packets": 4778344201071,
            "bytes": 170185841281358,
            "sender_asn": 10363655974,
            "dst_asn": 5785265412,
            "spoofed": 3,
        },
    },
    "flows_v6.fpk": {
        "family": FAMILY_IPV6,
        "meta": {"day": 1, "sampling_factor": 1.0, "vantage": "V6A"},
        "rows": [3, 3],
        "checksums": [
            [0xE1065BFA, 0x1EFCA1AB, 0x03F3D5B4, 0x30AD06D4, 0xBDC6D8C5,
             0xC7E6FA38, 0x51713E87, 0xB191AB79, 0x909FB2F2, 0xFC7ED7C8,
             0xA6614494],
            [0x457FAAF0, 0xFBF352F5, 0xEBBB1015, 0x0DED01E6, 0x9D82CC40,
             0xD1AB496E, 0xED0A98A1, 0x0026EC72, 0x915DD8C5, 0x6E30F54A,
             0xAF8A637C],
        ],
        "sums": {
            "src_ip": 11071480837,
            "dst_ip": 18428769010,
            "proto": 735,
            "dport": 151755,
            "packets": 3515129175992,
            "bytes": 99910142520999,
            "sender_asn": 5823085966,
            "dst_asn": 8885406841,
            "spoofed": 5,
            "src_ip_lo": 19379498007603801,
            "dst_ip_lo": 20540220276635974,
        },
    },
    "table.fpk": {
        "family": None,
        "meta": {"kind": "golden-table", "version": 2},
        "rows": [5],
        "checksums": [[0x3C6ADFAF, 0x02BABC9E, 0x8630CE8C, 0x43FEB9C8]],
        "sums": {
            "ids": 149131726255,
            "score": 2.4181337356567383,
            "port": 119723,
            "flag": 2,
        },
    },
}


def _sum(column: np.ndarray):
    return sum(column.tolist())


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_writer_reproduces_fixture_bytes(tmp_path, name):
    path = tmp_path / name
    WRITERS[name](path)
    assert path.read_bytes() == (FIXTURES / name).read_bytes()


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_reader_decodes_fixture(name):
    expected = EXPECTED[name]
    path = FIXTURES / name
    if expected["family"] is None:
        archive = TableArchive(path)
        arrays = archive.read_arrays()
    else:
        archive = FlowpackArchive(path)
        assert archive.family == expected["family"]
        flows = archive.read_all()
        assert flows.family == expected["family"]
        arrays = {name: getattr(flows, name) for name in archive.columns}
    assert archive.meta == expected["meta"]
    assert [segment.rows for segment in archive.segments] == expected["rows"]
    assert archive.num_rows == sum(expected["rows"])
    assert [list(segment.checksums) for segment in archive.segments] == (
        expected["checksums"]
    )
    assert {name: _sum(column) for name, column in arrays.items()} == (
        expected["sums"]
    )


class TestDamageMatrix:
    """Every truncation and every header byte flip of the two-segment
    ``flows_v4.fpk``.  Strict readers raise :class:`FlowpackError` (never
    ``struct.error``, ``IndexError`` or mmap's ``ValueError``), the
    lenient reader returns the intact segments with a damage report, and
    the capture cache treats the file as a miss."""

    SOURCE = FIXTURES / "flows_v4.fpk"

    @pytest.fixture()
    def layout(self):
        data = self.SOURCE.read_bytes()
        archive = FlowpackArchive(self.SOURCE)
        header_size = archive.segments[0].offsets[0] - data.find(b"SEGM")
        starts = [segment.offsets[0] - header_size for segment in archive.segments]
        json_end = 16 + int.from_bytes(data[12:16], "little")
        flows = [archive.segment_flows(i) for i in range(len(starts))]
        return data, json_end, starts, header_size, flows

    @staticmethod
    def _cache_misses(tmp_path, data) -> bool:
        cache = CaptureCache(tmp_path / "cache")
        key = "ab" + "0" * 62
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
        return cache.load(key) is None and not path.exists()

    def test_every_truncation(self, tmp_path, layout):
        data, _, starts, _, flows = layout
        path = tmp_path / "cut.fpk"
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            if cut in starts:
                # A cut on a segment boundary leaves a well-formed archive
                # of the segments before it: nothing records the count.
                kept = starts.index(cut)
                assert FlowpackArchive(path).num_rows == sum(
                    len(table) for table in flows[:kept]
                )
                continue
            with pytest.raises(FlowpackError) as raised:
                FlowpackArchive(path).read_all()
            if cut < 16:
                assert str(raised.value) == f"{path}: not a flowpack file"
            if cut < starts[0]:
                with pytest.raises(FlowpackError):
                    read_flows_archive_lenient(path)
            else:
                salvaged, report = read_flows_archive_lenient(path)
                intact = [t for t, start in zip(flows, starts[1:]) if start < cut]
                assert not report.ok(), cut
                assert _tables_equal(salvaged, intact), cut
            assert self._cache_misses(tmp_path, data[:cut]), cut

    def test_every_header_byte_flipped(self, tmp_path, layout):
        data, json_end, starts, header_size, flows = layout
        path = tmp_path / "flip.fpk"
        regions = [(None, 0, json_end)] + [
            (index, start, start + header_size)
            for index, start in enumerate(starts)
        ]
        for segment, begin, end in regions:
            for offset in range(begin, end):
                damaged = bytearray(data)
                damaged[offset] ^= 0xFF
                path.write_bytes(bytes(damaged))
                with pytest.raises(FlowpackError):
                    FlowpackArchive(path).read_all()
                if segment is None:
                    with pytest.raises(FlowpackError):
                        read_flows_archive_lenient(path)
                else:
                    salvaged, report = read_flows_archive_lenient(path)
                    intact = [t for i, t in enumerate(flows) if i != segment]
                    assert not report.ok(), offset
                    assert _tables_equal(salvaged, intact), offset
                assert self._cache_misses(tmp_path, bytes(damaged)), offset

    def test_header_padding_is_not_read(self, tmp_path, layout):
        data, json_end, starts, _, flows = layout
        path = tmp_path / "pad.fpk"
        for offset in range(json_end, starts[0]):
            damaged = bytearray(data)
            damaged[offset] ^= 0xFF
            path.write_bytes(bytes(damaged))
            assert _tables_equal(FlowpackArchive(path).read_all(), flows)


def _tables_equal(table: FlowTable, parts: list[FlowTable]) -> bool:
    """Whether ``table`` holds exactly the rows of ``parts``, in order."""
    if not parts:
        return len(table) == 0
    whole = FlowTable.concat(parts)
    return all(
        np.array_equal(getattr(table, name), getattr(whole, name))
        for name in whole.columns()
    )


def test_fixtures_stay_small():
    sizes = {path.name: path.stat().st_size for path in FIXTURES.glob("*.fpk")}
    assert sorted(sizes) == sorted(WRITERS)
    assert sum(sizes.values()) < 8192


if __name__ == "__main__":
    FIXTURES.mkdir(parents=True, exist_ok=True)
    for fixture, write in WRITERS.items():
        write(FIXTURES / fixture)
        print(FIXTURES / fixture, (FIXTURES / fixture).stat().st_size)

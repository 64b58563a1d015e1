"""Tests for the flowpack binary columnar archive format.

Three claims are load-bearing and proved here:

1. **Round-trip identity** — any FlowTable survives
   CSV ↔ flowpack ↔ FlowTable conversion bit-identically, at any
   segment size, including the ``spoofed=None`` sentinel, empty and
   single-row tables (property-tested with hypothesis);
2. **Damage behaves like CSV damage** — corrupted or truncated
   archives surface through the same lenient-mode
   :class:`~repro.io.ParseReport` / strict-raise contract the CSV
   reader honours, never as bare numpy errors;
3. **Archive-fed inference is bit-identical** — chunked accumulation
   straight off the mapping equals the in-memory batch fold at every
   chunk size and worker count;
4. **Checksums do not depend on who computes them** — the native
   CRC-32 fold, zlib (native disabled) and zlib after a declining
   module write the same bytes and report a flipped byte in the same
   words.
"""

import contextlib
import mmap
import os
import struct
import sys
import threading
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.parallel import partial_states_identical
from repro.flowpack import (
    FlowpackArchive,
    FlowpackError,
    FlowpackWriter,
    TableArchive,
    is_flowpack,
    iter_flows_archive,
    read_flows_archive_lenient,
    write_flows_archive,
)
from repro.io import (
    convert_flows,
    read_flows_csv,
    sniff_flow_format,
    write_flows,
    write_flows_csv,
)
from repro.traffic.flows import FLOW_COLUMNS, FlowTable
from repro.vantage.archive import ArchiveDayView, export_view
from repro.vantage.sampling import VantageDayView

from _factories import fold, make_flows


def tables_equal(a: FlowTable, b: FlowTable) -> bool:
    return len(a) == len(b) and all(
        np.array_equal(getattr(a, name), getattr(b, name))
        for name in FLOW_COLUMNS
    )


def random_flows(rng: np.random.Generator, rows: int) -> FlowTable:
    return FlowTable(
        src_ip=rng.integers(0, 2**32, rows, dtype=np.uint32),
        dst_ip=rng.integers(0, 2**32, rows, dtype=np.uint32),
        proto=rng.integers(0, 256, rows, dtype=np.uint8),
        dport=rng.integers(0, 2**16, rows, dtype=np.uint16),
        packets=rng.integers(0, 2**40, rows, dtype=np.int64),
        bytes=rng.integers(0, 2**45, rows, dtype=np.int64),
        sender_asn=rng.integers(-1, 2**31 - 1, rows, dtype=np.int32),
        dst_asn=rng.integers(-1, 2**31 - 1, rows, dtype=np.int32),
        spoofed=rng.integers(0, 2, rows).astype(bool),
    )


class TestRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(
        rows=st.integers(min_value=0, max_value=200),
        chunk_rows=st.one_of(
            st.none(), st.integers(min_value=1, max_value=64)
        ),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_flowpack_roundtrip_any_segmentation(
        self, tmp_path_factory, rows, chunk_rows, seed
    ):
        tmp = tmp_path_factory.mktemp("fp")
        flows = random_flows(np.random.default_rng(seed), rows)
        path = tmp / "t.fpk"
        write_flows_archive(flows, path, chunk_rows=chunk_rows)
        assert tables_equal(FlowpackArchive(path).read_all(), flows)

    @settings(max_examples=15, deadline=None)
    @given(
        rows=st.integers(min_value=0, max_value=120),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_csv_flowpack_csv_identical(self, tmp_path_factory, rows, seed):
        tmp = tmp_path_factory.mktemp("conv")
        flows = random_flows(np.random.default_rng(seed), rows)
        csv_a, fpk, csv_b = tmp / "a.csv", tmp / "t.fpk", tmp / "b.csv"
        write_flows_csv(flows, csv_a)
        convert_flows(csv_a, fpk, to="flowpack", chunk_rows=37)
        convert_flows(fpk, csv_b, to="csv", chunk_rows=19)
        assert csv_a.read_bytes() == csv_b.read_bytes()
        assert tables_equal(FlowpackArchive(fpk).read_all(), flows)

    def test_spoofed_none_sentinel(self, tmp_path):
        flows = FlowTable(
            src_ip=np.array([1, 2], dtype=np.uint32),
            dst_ip=np.array([3, 4], dtype=np.uint32),
            proto=np.array([6, 17], dtype=np.uint8),
            dport=np.array([80, 53], dtype=np.uint16),
            packets=np.array([5, 6], dtype=np.int64),
            bytes=np.array([200, 240], dtype=np.int64),
            sender_asn=np.array([1, 2], dtype=np.int32),
            dst_asn=np.array([3, 4], dtype=np.int32),
            spoofed=None,
        )
        path = tmp_path / "t.fpk"
        write_flows_archive(flows, path)
        loaded = FlowpackArchive(path).read_all()
        assert loaded.spoofed.dtype == bool
        assert not loaded.spoofed.any()
        assert tables_equal(loaded, flows)

    def test_empty_and_single_row(self, tmp_path):
        for rows in ([], [{"packets": 9, "spoofed": True}]):
            flows = make_flows(rows)
            path = tmp_path / f"t{len(rows)}.fpk"
            write_flows_archive(flows, path)
            assert tables_equal(FlowpackArchive(path).read_all(), flows)
            assert FlowpackArchive(path).num_rows == len(rows)

    def test_append_extends_archive(self, tmp_path):
        """The delta store's append path works on any table archive; a
        flow archive grows by one segment and reads back whole."""
        from repro.flowpack import append_table_columns

        path = tmp_path / "t.fpk"
        a = make_flows([{"packets": 1}, {"packets": 2}])
        b = make_flows([{"packets": 3}])
        write_flows_archive(a, path)
        append_table_columns({name: getattr(b, name) for name in b.columns()}, path)
        append_table_columns(
            {name: getattr(b, name)[:0] for name in b.columns()}, path
        )  # an empty append writes nothing
        archive = FlowpackArchive(path)
        assert len(archive.segments) == 2
        assert archive.read_all().packets.tolist() == [1, 2, 3]

    def test_iter_matches_batch(self, tmp_path):
        flows = random_flows(np.random.default_rng(0), 500)
        path = tmp_path / "t.fpk"
        write_flows_archive(flows, path, chunk_rows=117)
        for chunk_rows in (1, 50, 117, 499, 5000):
            chunks = list(iter_flows_archive(path, chunk_rows=chunk_rows))
            assert sum(len(c) for c in chunks) == 500
            assert all(len(c) <= chunk_rows for c in chunks)
            joined = FlowTable(
                **{
                    name: np.concatenate(
                        [getattr(c, name) for c in chunks]
                    )
                    for name in FLOW_COLUMNS
                }
            )
            assert tables_equal(joined, flows)

    def test_one_schema_object_per_header_schema(self, tmp_path):
        for name in ("a.fpk", "b.fpk"):
            write_flows_archive(make_flows([{}]), tmp_path / name)
        first, second = (
            FlowpackArchive(tmp_path / name) for name in ("a.fpk", "b.fpk")
        )
        assert first._schema is second._schema

    def test_zero_copy_views(self, tmp_path):
        flows = random_flows(np.random.default_rng(1), 64)
        path = tmp_path / "t.fpk"
        write_flows_archive(flows, path)
        segment = FlowpackArchive(path).segment_flows(0)
        assert segment.src_ip.base is not None

    def test_served_columns_are_read_only_views_of_the_mapping(self, tmp_path):
        # Plain ndarrays (no np.memmap subclass), still read-only and
        # still the mapped file's own memory.
        flows = random_flows(np.random.default_rng(3), 300)
        path = tmp_path / "t.fpk"
        write_flows_archive(flows, path, chunk_rows=100)
        archive = FlowpackArchive(path)
        served = [
            *archive.segment_arrays(1).values(),
            *(getattr(chunk, name) for chunk in archive.iter_chunks(40)
              for name in FLOW_COLUMNS),
        ]
        mapping = archive._data
        assert type(mapping) is np.ndarray
        assert not mapping.flags.writeable
        # np.frombuffer's base: the mmap, or a memoryview of it.
        assert isinstance(getattr(mapping.base, "obj", mapping.base), mmap.mmap)
        assert len(mapping) == path.stat().st_size
        for column in served:
            assert type(column) is np.ndarray
            assert not column.flags.writeable
            assert np.shares_memory(column, mapping)
            with pytest.raises(ValueError, match="read-only"):
                column[:1] = column[:1]
        first = archive.segment_arrays(0)["packets"]
        assert first.tolist() == flows.packets[:100].tolist()

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
    )
    def test_no_descriptor_outlives_its_archive(self, tmp_path):
        # The mapping holds the file's only descriptor, and dropping the
        # archive (or failing to open one) releases it.
        path, torn = tmp_path / "t.fpk", tmp_path / "torn.fpk"
        write_flows_archive(
            random_flows(np.random.default_rng(4), 100), path, chunk_rows=40
        )
        torn.write_bytes(path.read_bytes()[:-8])
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(500):
            assert len(FlowpackArchive(path).read_all()) == 100
            with pytest.raises(FlowpackError):
                FlowpackArchive(torn)
        assert len(os.listdir("/proc/self/fd")) == before

    def test_meta_travels_with_archive(self, tmp_path):
        path = tmp_path / "t.fpk"
        write_flows_archive(
            make_flows([{}]), path, meta={"vantage": "CE1", "day": 3}
        )
        meta = FlowpackArchive(path).meta
        assert meta["vantage"] == "CE1" and meta["day"] == 3

    def test_sniffing(self, tmp_path):
        csvp, fpk = tmp_path / "a.csv", tmp_path / "a.fpk"
        flows = make_flows([{"packets": 4}])
        write_flows(flows, csvp, format="csv")
        write_flows(flows, fpk, format="flowpack")
        assert sniff_flow_format(csvp) == "csv"
        assert sniff_flow_format(fpk) == "flowpack"
        assert is_flowpack(fpk) and not is_flowpack(csvp)
        assert tables_equal(read_flows_csv(csvp), FlowpackArchive(fpk).read_all())


class TestDamage:
    """Corruption surfaces like CSV damage: ParseReport, not numpy."""

    def _archive(self, tmp_path, segments=3, rows=100):
        flows = random_flows(np.random.default_rng(9), segments * rows)
        path = tmp_path / "t.fpk"
        write_flows_archive(flows, path, chunk_rows=rows)
        return path, flows

    def test_checksum_damage_quarantines_segment(self, tmp_path):
        path, flows = self._archive(tmp_path)
        segments = FlowpackArchive(path).segments
        data = bytearray(path.read_bytes())
        data[segments[1].offsets[0] + 4] ^= 0xFF
        path.write_bytes(bytes(data))

        with pytest.raises(FlowpackError, match="checksum"):
            FlowpackArchive(path).read_all()
        salvaged, report = read_flows_archive_lenient(path)
        assert len(salvaged) == 200
        assert not report.ok()
        assert [error.line for error in report.errors] == [2]
        assert salvaged.packets.tolist() == (
            flows.packets[:100].tolist() + flows.packets[200:].tolist()
        )

    def test_truncated_tail_reported(self, tmp_path):
        path, flows = self._archive(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - len(data) // 3])

        with pytest.raises(FlowpackError):
            FlowpackArchive(path).read_all()
        salvaged, report = read_flows_archive_lenient(path)
        assert len(salvaged) in (100, 200)
        assert not report.ok()
        assert salvaged.packets.tolist() == (
            flows.packets[: len(salvaged)].tolist()
        )

    def test_segment_header_damage_resyncs(self, tmp_path):
        path, flows = self._archive(tmp_path)
        segments = FlowpackArchive(path).segments
        data = bytearray(path.read_bytes())
        base = bytes(data).rfind(b"SEGM", 0, segments[1].offsets[0])
        data[base : base + 4] = b"XXXX"
        path.write_bytes(bytes(data))

        salvaged, report = read_flows_archive_lenient(path)
        assert not report.ok()
        assert len(salvaged) == 200
        assert salvaged.packets.tolist() == (
            flows.packets[:100].tolist() + flows.packets[200:].tolist()
        )

    def test_corrupt_file_header_always_fatal(self, tmp_path):
        path, _ = self._archive(tmp_path)
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(FlowpackError):
            FlowpackArchive(path).read_all()
        with pytest.raises(FlowpackError):
            read_flows_archive_lenient(path)

    def test_header_json_that_is_not_an_object(self, tmp_path):
        path = tmp_path / "t.fpk"
        payload = b"[]"
        path.write_bytes(
            b"FLOWPACK" + struct.pack("<II", 1, len(payload)) + payload
            + b"\x00" * 6
        )
        with pytest.raises(FlowpackError, match="malformed column schema"):
            FlowpackArchive(path)

    def test_strict_error_names_file_and_segment(self, tmp_path):
        path, _ = self._archive(tmp_path)
        segments = FlowpackArchive(path).segments
        data = bytearray(path.read_bytes())
        data[segments[0].offsets[3] + 1] ^= 0x55
        path.write_bytes(bytes(data))
        with pytest.raises(FlowpackError, match=r"t\.fpk.*segment 0"):
            FlowpackArchive(path).read_all()


def _views_pair(tmp_path, num_views=3, rows=400):
    """Matched (in-memory, archive-backed) view lists over random flows."""
    rng = np.random.default_rng(77)
    memory, archived = [], []
    for index in range(num_views):
        flows = random_flows(rng, rows)
        flows = FlowTable(
            **{
                **{name: getattr(flows, name) for name in FLOW_COLUMNS},
                "sender_asn": np.abs(flows.sender_asn),
                "dst_asn": np.abs(flows.dst_asn),
            }
        )
        view = VantageDayView(
            vantage=f"VP{index}", day=index % 2, flows=flows,
            sampling_factor=1.0 + index,
        )
        memory.append(view)
        archived.append(
            export_view(view, tmp_path / f"v{index}.fpk", chunk_rows=113)
        )
    return memory, archived


class TestArchiveFedInference:
    def test_archive_chunked_equals_batch(self, tmp_path):
        memory, archived = _views_pair(tmp_path)
        batch = fold(memory)
        for chunk_size in (1, 97, 113, 10_000, None, "auto"):
            streamed = fold(archived, chunk_size=chunk_size)
            assert partial_states_identical(batch, streamed), chunk_size

    def test_archive_parallel_equals_serial(self, tmp_path):
        memory, archived = _views_pair(tmp_path)
        serial = fold(memory)
        for workers in (2, 3):
            merged = fold(archived, workers=workers)
            assert partial_states_identical(serial, merged), workers

    def test_mixed_memory_and_archive_views(self, tmp_path):
        memory, archived = _views_pair(tmp_path)
        mixed = [memory[0], archived[1], memory[2]]
        assert partial_states_identical(
            fold(memory), fold(mixed)
        )

    def test_derived_views_match_the_in_memory_twin(self, tmp_path):
        # decimated / with_flows of an archive view and of the in-memory
        # view it was exported from: same in-memory view, same seed.
        memory, archived = _views_pair(tmp_path, num_views=2)

        def same_view(ours, theirs):
            assert type(ours) is type(theirs) is VantageDayView
            assert (ours.vantage, ours.day, ours.sampling_factor) == (
                theirs.vantage, theirs.day, theirs.sampling_factor
            )
            assert tables_equal(ours.flows, theirs.flows)

        for twin, view in zip(memory, archived):
            for factor in (1, 3):
                ours = view.decimated(factor, np.random.default_rng(5))
                same_view(ours, twin.decimated(factor, np.random.default_rng(5)))
                assert ours.sampling_factor == twin.sampling_factor * factor
            rewritten = twin.flows.slice_rows(0, 50)
            for factor in (None, 7.0):
                same_view(
                    view.with_flows(rewritten, factor),
                    twin.with_flows(rewritten, factor),
                )

    def test_open_requires_vantage_metadata(self, tmp_path):
        path = tmp_path / "bare.fpk"
        write_flows_archive(make_flows([{}]), path)
        with pytest.raises(ValueError, match="vantage"):
            ArchiveDayView.open(path)

    def test_export_preserves_view_identity(self, tmp_path):
        view = VantageDayView(
            vantage="CE1", day=4,
            flows=make_flows([{"packets": 2}, {"packets": 5}]),
            sampling_factor=250.0,
        )
        reopened = ArchiveDayView.open(
            export_view(view, tmp_path / "v.fpk").path
        )
        assert (reopened.vantage, reopened.day) == ("CE1", 4)
        assert reopened.sampling_factor == 250.0
        assert reopened.num_rows == 2
        assert tables_equal(reopened.flows, view.flows)

    def test_writer_context_manager_single_segments(self, tmp_path):
        path = tmp_path / "s.fpk"
        with FlowpackWriter(path, meta={"vantage": "X", "day": 0}) as writer:
            writer.write(make_flows([{"packets": 1}]))
            writer.write(make_flows([]))  # empty chunk: no segment
            writer.write(make_flows([{"packets": 2}]))
        segments = FlowpackArchive(path).segments
        assert len(segments) == 2
        assert FlowpackArchive(path).read_all().packets.tolist() == [1, 2]


class TestGenericTables:
    """The generic (non-flow) table layer under snapshot archives."""

    COLUMNS = {"ids": np.int64, "score": np.float64, "tag": "S2"}

    def arrays(self, rows=5):
        return {
            "ids": np.arange(rows, dtype=np.int64),
            "score": np.linspace(0.0, 1.0, rows),
            "tag": np.full(rows, b"ok", dtype="S2"),
        }

    def test_table_round_trip(self, tmp_path):
        from repro.flowpack import write_table_archive

        path = tmp_path / "t.fpk"
        arrays = self.arrays()
        write_table_archive(arrays, path, meta={"kind": "test-table"})
        archive = TableArchive(path)
        assert archive.meta["kind"] == "test-table"
        assert archive.num_rows == 5
        back = archive.read_arrays()
        for name, expect in arrays.items():
            np.testing.assert_array_equal(back[name], expect)

    def test_table_writer_multi_segment(self, tmp_path):
        from repro.flowpack import TableWriter

        path = tmp_path / "t.fpk"
        with TableWriter(path, self.COLUMNS, meta={"kind": "k"}) as writer:
            writer.write_columns(self.arrays(3))
            writer.write_columns(self.arrays(2))
        archive = TableArchive(path)
        assert len(archive.segments) == 2
        assert archive.read_arrays()["ids"].tolist() == [0, 1, 2, 0, 1]

    @pytest.mark.parametrize("damage", ["truncated", "bad_magic", "schema"])
    def test_append_fails_before_writing(self, tmp_path, damage):
        """A damaged archive, or arrays in another schema, is refused
        before a byte of the new segment is written."""
        from repro.flowpack import append_table_columns, write_table_archive

        path = tmp_path / "t.fpk"
        write_table_archive(self.arrays(3), path)
        arrays = self.arrays(2)
        if damage == "truncated":
            path.write_bytes(path.read_bytes()[:-5])
        elif damage == "bad_magic":
            path.write_bytes(b"X" + path.read_bytes()[1:])
        else:
            arrays = {"other": np.arange(2, dtype=np.int64)}
        before = path.read_bytes()
        with pytest.raises((FlowpackError, ValueError)):
            append_table_columns(arrays, path)
        assert path.read_bytes() == before

    def test_ragged_columns_rejected(self, tmp_path):
        from repro.flowpack import TableWriter

        with TableWriter(tmp_path / "t.fpk", self.COLUMNS) as writer:
            bad = self.arrays(3)
            bad["score"] = bad["score"][:2]
            with pytest.raises(ValueError):
                writer.write_columns(bad)

    def test_expected_columns_enforced(self, tmp_path):
        from repro.flowpack import write_table_archive

        path = tmp_path / "t.fpk"
        write_table_archive(self.arrays(), path)
        with pytest.raises(FlowpackError):
            TableArchive(
                path, expected_columns={"other": np.int32}
            )

    def test_flows_reader_rejects_generic_table(self, tmp_path):
        from repro.flowpack import write_table_archive

        path = tmp_path / "t.fpk"
        write_table_archive(self.arrays(), path)
        with pytest.raises(FlowpackError):
            FlowpackArchive(path).read_all()

    def test_generic_checksum_verification(self, tmp_path):
        from repro.flowpack import write_table_archive

        path = tmp_path / "t.fpk"
        write_table_archive(self.arrays(64), path)
        data = bytearray(path.read_bytes())
        data[-5] ^= 0xFF  # flip a bit inside the last column buffer
        path.write_bytes(bytes(data))
        archive = TableArchive(path)
        with pytest.raises(FlowpackError):
            archive.read_arrays()


# -- checksums: the native fold and zlib agree, byte for byte -----------


@contextlib.contextmanager
def checksum_provider(name):
    """Route ``crc32_columns`` through one provider: ``native`` (the C
    fold, with zlib forbidden so a decline fails), ``disabled``
    (``REPRO_DISABLE_NATIVE_KERNEL``: zlib) or ``declining`` (a module
    whose checksum declines with None: zlib)."""
    saved = dict(kernels._CACHE)
    kernels._CACHE.clear()
    try:
        if name == "disabled":
            with mock.patch.dict(os.environ, {kernels.DISABLE_NATIVE_ENV: "1"}):
                assert kernels.native_provider() is None
                yield
        elif name == "declining":
            kernels._CACHE["native"] = kernels.NativeKernel(
                SimpleNamespace(crc32_columns=mock.Mock(return_value=None))
            )
            yield
        else:
            if kernels.native_provider() is None:
                pytest.skip("the native module is unavailable")
            forbidden = SimpleNamespace(crc32=mock.Mock(side_effect=AssertionError))
            with mock.patch.object(kernels, "zlib", forbidden):
                yield
    finally:
        kernels._CACHE.clear()
        kernels._CACHE.update(saved)


CHECKSUM_PROVIDERS = ("native", "disabled", "declining")


class TestChecksumProviders:
    """Flowpack's CRC-32s are zlib's values under every provider."""

    @given(st.integers(0, 2**32 - 1), st.data())
    @settings(max_examples=20, deadline=None)
    def test_flipped_byte_reported_alike(self, tmp_path_factory, seed, data):
        rows = data.draw(st.integers(1, 300))
        flows = random_flows(np.random.default_rng(seed), 3 * rows)
        path = tmp_path_factory.mktemp("flip") / "t.fpk"
        write_flows_archive(flows, path, chunk_rows=rows)
        segment = FlowpackArchive(path).segments[data.draw(st.integers(0, 2))]
        column = data.draw(st.integers(0, len(segment.offsets) - 1))
        offset = data.draw(st.integers(0, segment.nbytes[column] - 1))
        damaged = bytearray(path.read_bytes())
        damaged[segment.offsets[column] + offset] ^= 1 << data.draw(
            st.integers(0, 7)
        )
        path.write_bytes(bytes(damaged))
        name = list(FlowpackArchive(path).columns)[column]
        messages = set()
        # The native leg only where the module loads (a run with the
        # native kernel disabled still compares the two zlib legs).
        native = kernels.native_provider() is not None
        for provider in CHECKSUM_PROVIDERS[0 if native else 1:]:
            with checksum_provider(provider):
                with pytest.raises(FlowpackError) as raised:
                    FlowpackArchive(path).read_all()
                messages.add(str(raised.value))
        (message,) = messages
        assert message.startswith(
            f"{path}: segment {segment.index}: column {name!r} checksum mismatch"
        )

    @pytest.mark.parametrize("provider", ("native", "declining"))
    def test_archives_identical_under_every_provider(self, tmp_path, provider):
        from repro.flowpack import write_table_archive

        rng = np.random.default_rng(71)
        flows = random_flows(rng, 5000)
        table = {"a": rng.integers(0, 9, 777).astype(np.uint16), "b": rng.random(777)}

        def write(prefix):
            write_flows_archive(flows, tmp_path / f"{prefix}.fpk", chunk_rows=1200)
            write_table_archive(table, tmp_path / f"{prefix}-table.fpk")

        with checksum_provider("disabled"):
            write("zlib")
        with checksum_provider(provider):
            write(provider)
        for suffix in (".fpk", "-table.fpk"):
            assert (tmp_path / f"{provider}{suffix}").read_bytes() == (
                tmp_path / f"zlib{suffix}"
            ).read_bytes()
        assert tables_equal(
            FlowpackArchive(tmp_path / f"{provider}.fpk").read_all(), flows
        )

    def test_concurrent_verification_agrees(self, tmp_path):
        # Four threads verify four archives at once through the one
        # native module (it drops the GIL); one archive is damaged.
        rng = np.random.default_rng(73)
        paths, expected = [], []
        for i, rows in enumerate((40_000, 7, 25_000, 3_000)):
            flows = random_flows(rng, rows)
            paths.append(tmp_path / f"{i}.fpk")
            write_flows_archive(flows, paths[-1], chunk_rows=max(rows // 3, 1))
            expected.append(flows)
        damaged = bytearray(paths[3].read_bytes())
        damaged[FlowpackArchive(paths[3]).segments[2].offsets[4] + 9] ^= 0x20
        paths[3].write_bytes(bytes(damaged))
        with pytest.raises(FlowpackError) as raised:
            FlowpackArchive(paths[3]).read_all()
        results = [[] for _ in paths]

        def work(index):
            for _ in range(15):
                try:
                    table = FlowpackArchive(paths[index]).read_all()
                    results[index].append(tables_equal(table, expected[index]))
                except FlowpackError as error:
                    results[index].append(str(error))

        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(len(paths))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [[True] * 15] * 3 + [[str(raised.value)] * 15]

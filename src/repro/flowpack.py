"""Flowpack: binary columnar archives (flows, and generic tables).

Row-oriented CSV is untenable at replay scale — a multi-GB vantage-day
costs one Python ``int()`` call per cell in both directions.  Flowpack
stores columnar data the way the pipeline already holds it: **per-column
contiguous numpy buffers**, so reading a day back is one read-only
``mmap`` plus a handful of zero-copy views instead of millions of
string conversions.

The container is schema-generic: the header JSON names the columns and
their dtypes, and two archive *kinds* are built on it —

* **flow archives** (:class:`FlowpackArchive`, the original kind): the
  per-family column schema (:func:`repro.traffic.flows.flow_columns`)
  of a :class:`~repro.traffic.flows.FlowTable` — the nine IPv4 columns,
  or the IPv6 schema with its uint64 keys and ``*_ip_lo`` columns;
* **table archives** (:class:`TableArchive` / :class:`TableWriter`):
  any caller-declared column set.  This is what
  :mod:`repro.core.snapshot` uses for ``snapshot.fpk`` files — the
  immutable classification snapshots the query service memory-maps.

Layout (all integers little-endian)::

    file   := magic header segment*
    magic  := b"FLOWPACK"                            (8 bytes)
    header := u32 version, u32 json_len,
              json_len bytes of UTF-8 JSON, pad8
              -- JSON: {"columns": [[name, dtype], ...], "meta": {...}}
    segment:= b"SEGM", u64 rows,
              (u64 nbytes, u32 crc32) per column, pad8,
              column buffers (each padded to 8 bytes), in header order

Design properties:

* **Append-able** — a segment is self-describing, so a chunked vantage
  capture streams straight to disk: every
  :meth:`TableWriter.write_columns` call appends one segment and
  nothing is ever rewritten.
* **Zero-copy reads** — opening an archive opens the file once and
  maps it read-only (``mmap.mmap``, held as a plain ``np.ndarray``
  through ``np.frombuffer``; no ``np.memmap``).  The one header walk
  runs over that mapping with ``struct.unpack_from``, and readers
  return read-only numpy views into it; slicing chunks out of them
  never copies a row.  All offsets are 8-byte aligned by construction,
  and opening is O(header): column payloads are touched only when
  read.  Each distinct header schema (dtypes, itemsizes, the
  segment-header ``Struct``, the flow family) is resolved once per
  process.
* **Per-column checksums** — every buffer carries a CRC-32.  Strict
  readers raise :class:`FlowpackError` naming the file, segment and
  column; the lenient reader degrades exactly like damaged CSV does,
  skipping the bad segment and collecting a
  :class:`~repro.io.ParseReport` (the quarantine path
  :mod:`repro.faults` policies key on).
* **Self-describing metadata** — the header JSON carries an arbitrary
  ``meta`` mapping, which vantage exports use to store the vantage
  code, day and sampling factor (:mod:`repro.vantage.archive`), and
  snapshots use for their provenance record.

The public flow entry points mirror the CSV ones re-exported from
:mod:`repro.io`: :func:`write_flows_archive`,
:func:`read_flows_archive_lenient` and :func:`iter_flows_archive` are
drop-in for their ``*_csv`` counterparts; :meth:`FlowpackArchive.read_all`
is the strict whole-archive read.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Any, Iterator, Mapping

import numpy as np

from repro.net.family import FAMILY_IPV4, FAMILY_IPV6
from repro.traffic.flows import FlowTable, flow_columns

#: File magic; also what :func:`is_flowpack` sniffs.
MAGIC = b"FLOWPACK"
#: Format version written by this module.
FLOWPACK_VERSION = 1
#: Per-segment marker.
_SEGMENT_MAGIC = b"SEGM"

_FILE_HEADER = struct.Struct("<II")  # version, json_len
#: Offset of the header JSON: the magic plus the file header.
_JSON_START = len(MAGIC) + _FILE_HEADER.size
_SEGMENT_HEADER = struct.Struct("<Q")  # rows
_COLUMN_HEADER = struct.Struct("<QI")  # nbytes, crc32


class FlowpackError(ValueError):
    """Structural damage in a flowpack file (bad header, checksum,
    truncation).  A ``ValueError`` so strict callers that already catch
    CSV parse errors catch flowpack damage the same way."""


def _crc32_columns(arrays) -> list[int]:
    """``zlib.crc32`` of each column buffer: one native call per
    segment when the native kernel module is available."""
    from repro.core.kernels import crc32_columns  # local: core imports us

    return crc32_columns(arrays)


def _pad8(n: int) -> int:
    """Bytes of padding that align ``n`` up to an 8-byte boundary."""
    return (-n) % 8


def _spec_of(columns: Mapping[str, Any]) -> list[list[str]]:
    """The header-JSON form of a ``name -> dtype`` column schema."""
    return [[name, np.dtype(dtype).str] for name, dtype in columns.items()]


@dataclass(frozen=True, slots=True)
class SegmentInfo:
    """Location of one segment's buffers inside the file."""

    index: int
    #: First global row of this segment (segments concatenate in order).
    start_row: int
    rows: int
    #: Absolute byte offset of each column buffer, in column order.
    offsets: tuple[int, ...]
    nbytes: tuple[int, ...]
    checksums: tuple[int, ...]

    @property
    def stop_row(self) -> int:
        return self.start_row + self.rows


# -- writing ------------------------------------------------------------


def _write_segment(
    handle, columns: Mapping[str, np.dtype], arrays: Mapping[str, np.ndarray]
) -> None:
    """Write one segment holding ``arrays`` to ``handle`` (nothing when
    empty).  Every schema column must be present, and all arrays must
    share one length; either check fails before a byte is written."""
    missing = set(columns) - set(arrays)
    if missing:
        raise ValueError(f"segment lacks columns: {sorted(missing)}")
    lengths = {len(arrays[name]) for name in columns}
    if len(lengths) > 1:
        raise ValueError(f"ragged segment columns: lengths {lengths}")
    rows = lengths.pop()
    if rows == 0:
        return
    buffers = [
        np.ascontiguousarray(arrays[name], dtype=dtype)
        for name, dtype in columns.items()
    ]
    header = [_SEGMENT_MAGIC, _SEGMENT_HEADER.pack(rows)]
    for buffer, crc in zip(buffers, _crc32_columns(buffers)):
        header.append(_COLUMN_HEADER.pack(buffer.nbytes, crc))
    header_bytes = b"".join(header)
    handle.write(header_bytes)
    handle.write(b"\x00" * _pad8(len(header_bytes)))
    for buffer in buffers:
        handle.write(buffer)
        handle.write(b"\x00" * _pad8(buffer.nbytes))


class TableWriter:
    """Writer for a generic columnar archive.

    ``columns`` declares the schema (``name -> dtype``); every
    :meth:`write_columns` call appends one self-describing segment.
    Use as a context manager; an empty write is a no-op (segments always
    hold at least one row).
    """

    def __init__(
        self,
        path: str | Path,
        columns: Mapping[str, Any],
        meta: Mapping[str, Any] | None = None,
    ) -> None:
        self.path = Path(path)
        self.columns = {
            name: np.dtype(dtype) for name, dtype in columns.items()
        }
        if not self.columns:
            raise ValueError("an archive needs at least one column")
        self._handle = open(self.path, "wb")
        payload = json.dumps(
            {"columns": _spec_of(self.columns), "meta": dict(meta or {})},
            sort_keys=True,
        ).encode()
        self._handle.write(MAGIC)
        self._handle.write(_FILE_HEADER.pack(FLOWPACK_VERSION, len(payload)))
        self._handle.write(payload)
        self._handle.write(b"\x00" * _pad8(len(payload)))

    def write_columns(self, arrays: Mapping[str, np.ndarray]) -> None:
        """Append one segment holding ``arrays`` (no-op when empty)."""
        _write_segment(self._handle, self.columns, arrays)

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "TableWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class FlowpackWriter(TableWriter):
    """Flow-archive writer (one segment per :meth:`write`).

    ``family`` picks the flow schema (``"ipv4"`` default).
    """

    def __init__(
        self,
        path: str | Path,
        meta: Mapping[str, Any] | None = None,
        family: str | None = None,
    ) -> None:
        self.family = family if family is not None else FAMILY_IPV4
        super().__init__(path, flow_columns(self.family), meta=meta)

    def write(self, flows: FlowTable) -> None:
        """Append one segment holding ``flows`` (no-op when empty)."""
        if flows.family != self.family:
            if len(flows) == 0:
                return
            raise FlowpackError(
                f"{self.path}: cannot write {flows.family} flows to an "
                f"{self.family} archive"
            )
        self.write_columns(
            {name: getattr(flows, name) for name in self.columns}
        )


def write_flows_archive(
    flows: FlowTable,
    path: str | Path,
    meta: Mapping[str, Any] | None = None,
    chunk_rows: int | None = None,
) -> None:
    """Write a flow table as a flowpack archive.

    ``chunk_rows`` splits the table into multiple segments (the shape a
    chunked capture stream would have produced); ``None`` writes one
    segment.  An empty table yields a valid zero-segment archive (whose
    header still records the table's family).
    """
    with FlowpackWriter(path, meta=meta, family=flows.family) as writer:
        for chunk in flows.iter_chunks(chunk_rows):
            writer.write(chunk)


def write_table_archive(
    arrays: Mapping[str, np.ndarray],
    path: str | Path,
    meta: Mapping[str, Any] | None = None,
) -> None:
    """Write aligned arrays as a one-segment generic table archive.

    The schema is taken from the arrays themselves (name and dtype, in
    mapping order).  Empty arrays yield a valid zero-segment archive
    that still carries the schema and ``meta``.
    """
    columns = {name: array.dtype for name, array in arrays.items()}
    with TableWriter(path, columns, meta=meta) as writer:
        writer.write_columns(arrays)


def append_table_columns(
    arrays: Mapping[str, np.ndarray], path: str | Path
) -> None:
    """Append aligned arrays as one new segment to an existing generic
    table archive (the schema comes from the archive's own header; an
    empty append is a no-op, exactly like :meth:`TableWriter.write_columns`).

    This is how the snapshot delta store grows its ``deltas.fpk``: one
    self-describing segment per publish, nothing ever rewritten.  The
    archive is scanned once, strictly, so a damaged one (or arrays that
    lack one of its columns) fails before a byte is written.
    """
    columns = TableArchive(path).columns
    with open(path, "ab") as handle:
        _write_segment(handle, columns, arrays)


# -- opening ------------------------------------------------------------


def is_flowpack(path: str | Path) -> bool:
    """Whether ``path`` starts with the flowpack magic."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


@dataclass(frozen=True, slots=True)
class _Schema:
    """A header schema, resolved once per process by :func:`_schema_of`."""

    #: The header-JSON ``[[name, dtype], ...]`` entries, as tuples.
    spec: tuple[tuple[str, str], ...]
    columns: dict[str, np.dtype]
    itemsizes: tuple[int, ...]
    #: ``b"SEGM"``, rows, then ``(nbytes, crc32)`` per column.
    segment_header: struct.Struct
    #: ``segment_header.size`` padded to 8 bytes (first column offset).
    segment_header_size: int
    #: The flow family whose schema this is; None for any other table.
    family: str | None


@lru_cache(maxsize=64)
def _resolve_schema(spec: tuple[tuple[str, str], ...]) -> _Schema:
    """The :class:`_Schema` of a header spec (``TypeError`` on a dtype
    numpy cannot read)."""
    dtypes = [np.dtype(dtype) for _, dtype in spec]
    segment_header = struct.Struct(
        f"<{len(_SEGMENT_MAGIC)}s"
        + _SEGMENT_HEADER.format.lstrip("<")
        + _COLUMN_HEADER.format.lstrip("<") * len(spec)
    )
    flow_specs = {
        tuple(map(tuple, _spec_of(flow_columns(name)))): name
        for name in (FAMILY_IPV4, FAMILY_IPV6)
    }
    return _Schema(
        spec=spec,
        columns={name: dtype for (name, _), dtype in zip(spec, dtypes)},
        itemsizes=tuple(dtype.itemsize for dtype in dtypes),
        segment_header=segment_header,
        segment_header_size=segment_header.size + _pad8(segment_header.size),
        family=flow_specs.get(spec),
    )


def _schema_of(spec, path: Path) -> _Schema:
    """The resolved schema of a header's ``columns`` entry."""
    if (
        not isinstance(spec, list)
        or not spec
        or not all(isinstance(col, list) and len(col) == 2 for col in spec)
    ):
        raise FlowpackError(f"{path}: malformed column schema: {spec}")
    try:
        return _resolve_schema(tuple(map(tuple, spec)))
    except TypeError as error:
        raise FlowpackError(f"{path}: unreadable column dtype: {error}") from None


def _walk(data: mmap.mmap, path: Path, expected, report):
    """Walk an archive's file header and segment headers in ``data``.

    Returns ``(meta, schema, segments)``.  With ``expected`` (a header
    spec) the schema must match it exactly.  Damage before the first
    segment (bad magic, version, header, schema) is always fatal, like a
    wrong CSV header.  A truncated or malformed *segment* raises when
    ``report`` is None; otherwise it is recorded in the report and the
    walk resyncs on the next segment magic, so one damaged header loses
    one segment, not the rest of the archive.

    Checksums are **not** verified here: the walk stays O(header) so
    opening a multi-GB archive is instant; per-segment verification
    happens on first read.
    """
    size = len(data)
    if data[:len(MAGIC)] != MAGIC:
        raise FlowpackError(f"{path}: not a flowpack file")
    version, json_len = _FILE_HEADER.unpack_from(data, len(MAGIC))
    if version != FLOWPACK_VERSION:
        raise FlowpackError(f"{path}: unsupported flowpack version {version}")
    pos = _JSON_START + json_len
    if pos + _pad8(json_len) > size:
        raise FlowpackError(f"{path}: truncated header")
    try:
        header = json.loads(data[_JSON_START:pos].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise FlowpackError(f"{path}: corrupt header JSON: {error}") from None
    if not isinstance(header, dict):
        header = {}
    spec = header.get("columns")
    if expected is not None and spec != expected:
        raise FlowpackError(f"{path}: unexpected flowpack schema: {spec}")
    schema = _schema_of(spec, path)
    pos += _pad8(json_len)

    unpack = schema.segment_header.unpack_from
    header_size = schema.segment_header_size
    names = [name for name, _ in schema.spec]
    segments: list[SegmentInfo] = []
    start_row = 0
    while pos < size:
        damage = None
        fields = unpack(data, pos) if pos + header_size <= size else None
        if fields is None or fields[0] != _SEGMENT_MAGIC:
            damage = "truncated or corrupt segment header"
        else:
            rows = fields[1]
            nbytes = fields[2::2]
            offsets = []
            cursor = pos + header_size
            for name, itemsize, length in zip(names, schema.itemsizes, nbytes):
                if length != rows * itemsize:
                    damage = (
                        f"column {name!r} holds {length} bytes, "
                        f"expected {rows * itemsize}"
                    )
                    break
                offsets.append(cursor)
                cursor += length + _pad8(length)
            if damage is None and cursor > size:
                damage = (
                    f"segment data runs past end of file "
                    f"({cursor} > {size} bytes)"
                )
            if damage is None and rows == 0:
                damage = "segment with zero rows"
        if damage is not None:
            message = f"segment {len(segments)}: {damage}"
            if report is None:
                raise FlowpackError(f"{path}: {message}")
            from repro.io import RowError  # local: io imports us

            report.errors.append(
                RowError(
                    line=len(segments) + 1, message=message,
                    text=f"byte offset {pos}",
                )
            )
            # A 4-byte magic plus per-column exact length checks make a
            # false resync vanishingly unlikely.  No magic ahead = a
            # truncated tail; stop.
            pos = data.find(_SEGMENT_MAGIC, pos + 1)
            if pos < 0:
                break
            continue
        segments.append(
            SegmentInfo(
                index=len(segments),
                start_row=start_row,
                rows=rows,
                offsets=tuple(offsets),
                nbytes=nbytes,
                checksums=fields[3::2],
            )
        )
        if report is not None:
            report.total_rows += rows
        start_row += rows
        pos = cursor
    return header.get("meta", {}), schema, segments


# -- reading ------------------------------------------------------------


class TableArchive:
    """A memory-mapped generic columnar archive.

    Opening maps the file once, read-only, and walks its headers over
    that mapping; column data stays untouched until read.  The mapping
    is held as a plain read-only ``np.ndarray`` (``np.frombuffer`` over
    the ``mmap``), and every array this object hands out is a zero-copy
    (read-only) view into it.  Each segment's checksums are verified
    once, on first read; pass ``verify=False`` to skip (e.g. a worker
    re-reading a range the coordinator already verified).
    ``expected_columns`` pins the schema (open fails on a mismatch);
    without it the archive's own header schema is served as-is.
    """

    def __init__(
        self,
        path: str | Path,
        expected_columns: Mapping[str, Any] | None = None,
        *,
        _report=None,
    ) -> None:
        # A Path is kept as given: re-parsing one costs ~5 us an open.
        self.path = path if isinstance(path, Path) else Path(path)
        expected = (
            _spec_of(expected_columns) if expected_columns is not None else None
        )
        fd = os.open(self.path, os.O_RDONLY)
        try:
            if os.fstat(fd).st_size < _JSON_START:
                raise FlowpackError(f"{self.path}: not a flowpack file")
            mapping = mmap.mmap(fd, 0, access=mmap.ACCESS_READ)
        finally:
            os.close(fd)
        try:
            self.meta, self._schema, self.segments = _walk(
                mapping, self.path, expected, _report
            )
        except BaseException:
            mapping.close()
            raise
        #: The archive's schema, as ``name -> np.dtype``.
        self.columns: dict[str, np.dtype] = dict(self._schema.columns)
        self.num_rows = (
            self.segments[-1].stop_row if self.segments else 0
        )
        self._data = np.frombuffer(mapping, dtype=np.uint8)
        self._verified = [False] * len(self.segments)

    def verify_segment(self, index: int) -> None:
        """Check one segment's per-column CRC-32s (idempotent)."""
        if self._verified[index]:
            return
        segment = self.segments[index]
        data = self._data
        computed = _crc32_columns(
            data[offset:offset + nbytes]
            for offset, nbytes in zip(segment.offsets, segment.nbytes)
        )
        for name, expected, actual in zip(
            self.columns, segment.checksums, computed
        ):
            if actual != expected:
                raise FlowpackError(
                    f"{self.path}: segment {index}: column {name!r} "
                    f"checksum mismatch (stored {expected:#010x}, "
                    f"computed {actual:#010x})"
                )
        self._verified[index] = True

    def segment_arrays(
        self, index: int, verify: bool = True
    ) -> dict[str, np.ndarray]:
        """One segment as zero-copy column views of the mapping."""
        if verify:
            self.verify_segment(index)
        segment = self.segments[index]
        data = self._data
        arrays = {}
        for (name, dtype), offset, nbytes in zip(
            self.columns.items(), segment.offsets, segment.nbytes
        ):
            arrays[name] = data[offset:offset + nbytes].view(dtype)
        return arrays

    def read_arrays(self, verify: bool = True) -> dict[str, np.ndarray]:
        """All columns, concatenated (zero-copy iff one segment)."""
        if not self.segments:
            return {
                name: np.empty(0, dtype=dtype)
                for name, dtype in self.columns.items()
            }
        if len(self.segments) == 1:
            return self.segment_arrays(0, verify=verify)
        parts = [
            self.segment_arrays(i, verify=verify)
            for i in range(len(self.segments))
        ]
        return {
            name: np.concatenate([part[name] for part in parts])
            for name in self.columns
        }


class FlowpackArchive(TableArchive):
    """A memory-mapped *flow* archive (schema pinned per family).

    The header schema must be one of the per-family flow schemas; the
    resolved family is exposed as :attr:`family` and stamped on every
    table handed out.  Every :class:`~repro.traffic.flows.FlowTable`
    this object returns holds zero-copy (read-only) views into one
    shared memory mapping of the file.
    """

    def __init__(self, path: str | Path, *, _report=None) -> None:
        super().__init__(path, _report=_report)
        if self._schema.family is None:
            spec = [list(col) for col in self._schema.spec]
            raise FlowpackError(
                f"{self.path}: not a flow archive schema: {spec}"
            )
        #: Address family name resolved from the header schema.
        self.family = self._schema.family

    def segment_flows(self, index: int, verify: bool = True) -> FlowTable:
        """One segment as a zero-copy flow table over the mapping."""
        return FlowTable(
            **self.segment_arrays(index, verify=verify), family=self.family
        )

    def iter_chunks(self, chunk_rows: int | None = None) -> Iterator[FlowTable]:
        """Bounded-size chunks over the archive, zero-copy per segment.

        Chunks never cross a segment boundary (each is a slice of one
        segment's mapped views), so they concatenate to exactly the
        full table; ``chunk_rows=None`` yields one chunk per segment.
        """
        if chunk_rows is not None and chunk_rows < 1:
            raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
        for index in range(len(self.segments)):
            yield from self.segment_flows(index).iter_chunks(chunk_rows)

    def read_all(self, verify: bool = True) -> FlowTable:
        """The whole archive as one table (zero-copy iff one segment)."""
        if not self.segments:
            return FlowTable.empty(self.family)
        if len(self.segments) == 1:
            return self.segment_flows(0, verify=verify)
        return FlowTable.concat(
            self.segment_flows(i, verify=verify)
            for i in range(len(self.segments))
        )


def iter_flows_archive(
    path: str | Path, chunk_rows: int = 65536
) -> Iterator[FlowTable]:
    """Stream an archive as bounded-size flow chunks.

    Drop-in for :func:`repro.io.iter_flows_csv` wherever chunks feed a
    :class:`repro.core.accum.PrefixAccumulator`: strict (checksum or
    structural damage raises :class:`FlowpackError` naming the file and
    segment), zero-copy, and chunks concatenate to exactly the one-shot
    read.
    """
    archive = FlowpackArchive(path)
    yield from archive.iter_chunks(chunk_rows)


def read_flows_archive_lenient(path: str | Path):
    """Read a whole archive, collecting damage instead of raising.

    The flowpack analogue of :func:`repro.io.read_flows_csv_lenient`:
    segments that fail their checksum are skipped and recorded (one
    :class:`~repro.io.RowError` per segment, ``line`` = 1-based segment
    ordinal, ``total_rows`` counting the lost rows), and a truncated
    tail is reported the same way — so a mostly-good archive survives
    disk damage through the identical ``ParseReport``/quarantine path
    CSV damage uses.  A corrupt file header stays fatal in both modes.
    """
    from repro.io import ParseReport, RowError

    report = ParseReport(path=str(path))
    archive = FlowpackArchive(path, _report=report)
    good: list[FlowTable] = []
    for segment in archive.segments:
        try:
            good.append(archive.segment_flows(segment.index))
            report.good_rows += segment.rows
        except FlowpackError as error:
            report.errors.append(
                RowError(
                    line=segment.index + 1,
                    message=str(error).split(": ", 1)[-1],
                    text=f"segment {segment.index} "
                    f"({segment.rows} row(s) lost)",
                )
            )
    report.errors.sort(key=lambda error: error.line)
    if not good:
        return FlowTable.empty(archive.family), report
    return FlowTable.concat(good), report

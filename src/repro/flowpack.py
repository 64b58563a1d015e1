"""Flowpack: binary columnar archives (flows, and generic tables).

Row-oriented CSV is untenable at replay scale — a multi-GB vantage-day
costs one Python ``int()`` call per cell in both directions.  Flowpack
stores columnar data the way the pipeline already holds it: **per-column
contiguous numpy buffers**, so reading a day back is an ``np.memmap``
plus a handful of zero-copy views instead of millions of string
conversions.

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
* **Zero-copy reads** — readers return plain, read-only numpy views
  into one shared memory mapping of the file (an ``np.memmap`` viewed
  as ``np.ndarray``); slicing chunks out of them never copies a row.  All
  offsets are 8-byte aligned by construction, and opening an archive is
  O(header): column payloads are touched only when read.
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
import struct
from dataclasses import dataclass
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


def _column_spec(family: str = FAMILY_IPV4) -> list[list[str]]:
    return _spec_of(flow_columns(family))


def _flow_family_of_spec(spec: list[list[str]], path) -> str:
    """The address family whose flow schema matches a header spec."""
    for name in (FAMILY_IPV4, FAMILY_IPV6):
        if spec == _column_spec(name):
            return name
    raise FlowpackError(f"{path}: not a flow archive schema: {spec}")


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
    _, spec, _, _ = _scan_table(path, strict=True)
    columns = {name: np.dtype(dtype) for name, dtype in spec}
    with open(path, "ab") as handle:
        _write_segment(handle, columns, arrays)


# -- scanning -----------------------------------------------------------


def is_flowpack(path: str | Path) -> bool:
    """Whether ``path`` starts with the flowpack magic."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


def _scan_table(
    path: str | Path,
    strict: bool = True,
    expected: list[list[str]] | None = None,
):
    """Walk an archive's headers without touching the column data.

    Returns ``(meta, columns_spec, segments, report)`` where
    ``columns_spec`` is the header's ``[[name, dtype], ...]`` schema.
    With ``expected`` the header schema must match it exactly —
    structural damage before the first segment (bad magic, header,
    schema) is always fatal, exactly like a wrong CSV header.  A
    truncated or malformed *segment* is fatal in strict mode; lenient
    mode stops at the damage and records it in the report (everything
    after a truncation point is unreadable).

    Checksums are **not** verified here — scanning must stay O(header)
    so an ``np.memmap`` open of a multi-GB archive is instant;
    per-segment verification happens on first read.
    """
    from repro.io import ParseReport, RowError  # local: io imports us

    path = Path(path)
    report = ParseReport(path=str(path))
    size = path.stat().st_size
    with open(path, "rb") as handle:
        prefix = handle.read(len(MAGIC) + _FILE_HEADER.size)
        if len(prefix) < len(MAGIC) + _FILE_HEADER.size or not prefix.startswith(
            MAGIC
        ):
            raise FlowpackError(f"{path}: not a flowpack file")
        version, json_len = _FILE_HEADER.unpack_from(prefix, len(MAGIC))
        if version != FLOWPACK_VERSION:
            raise FlowpackError(
                f"{path}: unsupported flowpack version {version}"
            )
        payload = handle.read(json_len)
        if len(payload) < json_len:
            raise FlowpackError(f"{path}: truncated header")
        try:
            header = json.loads(payload.decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise FlowpackError(f"{path}: corrupt header JSON: {error}") from None
        spec = header.get("columns")
        if expected is not None and spec != expected:
            raise FlowpackError(
                f"{path}: unexpected flowpack schema: {spec}"
            )
        if (
            not isinstance(spec, list)
            or not spec
            or not all(
                isinstance(col, list) and len(col) == 2 for col in spec
            )
        ):
            raise FlowpackError(f"{path}: malformed column schema: {spec}")
        try:
            itemsizes = [np.dtype(dtype).itemsize for _, dtype in spec]
        except TypeError as error:
            raise FlowpackError(
                f"{path}: unreadable column dtype: {error}"
            ) from None
        meta = header.get("meta", {})
        ncols = len(spec)
        handle.seek(_pad8(json_len), 1)

        segments: list[SegmentInfo] = []
        start_row = 0
        seg_header_size = (
            len(_SEGMENT_MAGIC) + _SEGMENT_HEADER.size
            + ncols * _COLUMN_HEADER.size
        )
        seg_header_size += _pad8(seg_header_size)
        while True:
            base = handle.tell()
            if base >= size:
                break
            raw = handle.read(seg_header_size)
            damage = None
            if len(raw) < seg_header_size or not raw.startswith(_SEGMENT_MAGIC):
                damage = "truncated or corrupt segment header"
                rows = 0
            else:
                (rows,) = _SEGMENT_HEADER.unpack_from(raw, len(_SEGMENT_MAGIC))
                offsets, nbytes, checksums = [], [], []
                cursor = base + seg_header_size
                pos = len(_SEGMENT_MAGIC) + _SEGMENT_HEADER.size
                for (name, _), itemsize in zip(spec, itemsizes):
                    length, crc = _COLUMN_HEADER.unpack_from(raw, pos)
                    pos += _COLUMN_HEADER.size
                    if length != rows * itemsize:
                        damage = (
                            f"column {name!r} holds {length} bytes, "
                            f"expected {rows * itemsize}"
                        )
                        break
                    offsets.append(cursor)
                    nbytes.append(length)
                    checksums.append(crc)
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
                if strict:
                    raise FlowpackError(f"{path}: {message}")
                report.errors.append(
                    RowError(
                        line=len(segments) + 1, message=message,
                        text=f"byte offset {base}",
                    )
                )
                # Resync: scan forward for the next segment magic, so a
                # single damaged header loses one segment, not the rest
                # of the archive.  (A 4-byte magic plus per-column exact
                # length checks makes a false resync vanishingly
                # unlikely.)  No magic ahead = a truncated tail; stop.
                handle.seek(base + 1)
                rest = handle.read()
                resync = rest.find(_SEGMENT_MAGIC)
                if resync < 0:
                    break
                handle.seek(base + 1 + resync)
                continue
            segments.append(
                SegmentInfo(
                    index=len(segments),
                    start_row=start_row,
                    rows=rows,
                    offsets=tuple(offsets),
                    nbytes=tuple(nbytes),
                    checksums=tuple(checksums),
                )
            )
            report.total_rows += rows
            report.good_rows += rows
            start_row += rows
            handle.seek(cursor)
    return meta, spec, segments, report


# -- reading ------------------------------------------------------------


class TableArchive:
    """A memory-mapped generic columnar archive.

    Column data is one read-only memory mapping of the file, held as a
    plain ``np.ndarray``; every array this object hands out is a
    zero-copy (read-only) view into it.  Each
    segment's checksums are verified once, on first read; pass
    ``verify=False`` to skip (e.g. a worker re-reading a range the
    coordinator already verified).  ``expected_columns`` pins the
    schema (open fails on a mismatch); without it the archive's own
    header schema is served as-is.
    """

    def __init__(
        self,
        path: str | Path,
        expected_columns: Mapping[str, Any] | None = None,
        *,
        _scanned=None,
    ) -> None:
        self.path = Path(path)
        expected = (
            _spec_of(expected_columns) if expected_columns is not None else None
        )
        if _scanned is None:
            self.meta, spec, self.segments, _ = _scan_table(
                self.path, strict=True, expected=expected
            )
        else:  # pre-scanned (the lenient reader's salvage path)
            self.meta, spec, self.segments = _scanned
        #: The archive's schema, as ``name -> np.dtype``.
        self.columns: dict[str, np.dtype] = {
            name: np.dtype(dtype) for name, dtype in spec
        }
        self.num_rows = (
            self.segments[-1].stop_row if self.segments else 0
        )
        self._mmap: np.ndarray | None = None
        self._verified = [False] * len(self.segments)

    def _data(self) -> np.ndarray:
        if self._mmap is None:
            # A plain (read-only) ndarray over the mapping: a slice of
            # an np.memmap pays a Python-level __array_finalize__, once
            # per column handed out.  A str path: for a Path, memmap
            # resolves it (an lstat per component) only to set the
            # .filename that view drops.
            self._mmap = np.memmap(
                str(self.path), dtype=np.uint8, mode="r"
            ).view(np.ndarray)
        return self._mmap

    def verify_segment(self, index: int) -> None:
        """Check one segment's per-column CRC-32s (idempotent)."""
        if self._verified[index]:
            return
        segment = self.segments[index]
        data = self._data()
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
        data = self._data()
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

    def __init__(self, path: str | Path, *, _scanned=None) -> None:
        super().__init__(path, _scanned=_scanned)
        #: Address family name resolved from the header schema.
        self.family = _flow_family_of_spec(
            _spec_of(self.columns), self.path
        )

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
    from repro.io import RowError

    path = Path(path)
    meta, spec, segments, report = _scan_table(path, strict=False)
    family = _flow_family_of_spec(spec, path)
    archive: FlowpackArchive | None = None
    good: list[FlowTable] = []
    if segments:
        archive = FlowpackArchive(path, _scanned=(meta, spec, segments))
    report.good_rows = 0
    for segment in segments:
        try:
            good.append(archive.segment_flows(segment.index, verify=True))
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
        return FlowTable.empty(family), report
    return FlowTable.concat(good), report

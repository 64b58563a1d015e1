"""Serialisation of the meta-telescope's data products.

The two products of the paper's Section 5 need durable formats so an
operator can feed them into firewalls, IDSs or a CERT report:

* the **prefix list** — one ``a.b.c.0/24`` per line, with a comment
  header (the format every BGP/ACL toolchain ingests);
* the **captured-traffic table** — CSV flow records (no payloads, by
  construction).

Both round-trip losslessly.

Readers come in two modes.  The default (strict) readers raise on the
first malformed row, naming the file and 1-based line number.  The
``*_lenient`` variants never raise on row-level damage: bad rows are
skipped and collected into a :class:`ParseReport`, so a mostly-good
day survives a corrupted export instead of being lost entirely.  A
flow value outside its column's dtype (``src_ip`` 2**32 in an IPv4
file, say) is row damage like any other.

The three CSV flow readers share one core, which reads the body in
fixed blocks of whole lines (``_BLOCK_BYTES``).  A *plain* block —
only digits, commas, minus signs and newlines, every CR the first half
of a CRLF, which is everything :func:`write_flows_csv` emits (the -1 of
an unknown ASN included) — is parsed in one call to numpy's C text
reader.  From the first block that is not plain (or whose rows are
ragged, have an empty field or a value outside its column), the rest
of the file goes row by row through ``csv.reader`` and ``int()``, with
line numbers offset by the lines already consumed, so damage is
rejected with the same rows, line numbers and messages either way.  A
stream holds at most ``chunk_rows`` parsed rows plus two blocks.

Flow tables additionally serialise to **flowpack**, a binary columnar
archive format (:mod:`repro.flowpack`) re-exported here: per-column
contiguous numpy buffers with per-column checksums, append-able
segment by segment, read back through one read-only ``mmap`` as
zero-copy chunk views — the replay-scale counterpart of the CSV interchange format.
``iter_flows_archive`` is drop-in for ``iter_flows_csv``, with the
same strict/lenient split (:func:`read_flows_archive_lenient` reports
damaged segments through the same :class:`ParseReport` path).
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from io import BytesIO, TextIOWrapper
from itertools import chain
from operator import le
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.net.blocksets import aggregate_blocks, expand_prefixes
from repro.net.family import FAMILY_IPV4, FAMILY_IPV6, IPV4, AddressFamily
from repro.traffic.flows import FLOW_COLUMNS, FlowTable, flow_columns


@dataclass(frozen=True, slots=True)
class RowError:
    """One malformed row, by position."""

    line: int
    message: str
    text: str


@dataclass
class ParseReport:
    """Row-level damage collected by a lenient read."""

    path: str
    total_rows: int = 0
    good_rows: int = 0
    errors: list[RowError] = field(default_factory=list)

    def ok(self) -> bool:
        """Whether every row parsed."""
        return not self.errors

    def summary(self) -> str:
        """One-line operator summary."""
        if self.ok():
            return f"{self.path}: {self.good_rows} row(s), no errors"
        first = self.errors[0]
        return (
            f"{self.path}: {len(self.errors)} of {self.total_rows} row(s) "
            f"malformed (first at line {first.line}: {first.message})"
        )


# -- prefix lists -------------------------------------------------------


def _format_prefix_lines(
    blocks: np.ndarray,
    comment: str | None,
    aggregate: bool,
    family: AddressFamily = IPV4,
) -> list[str]:
    """The one true prefix-list rendering (writers must not diverge)."""
    lines = []
    if comment:
        lines.extend(f"# {line}" for line in comment.splitlines())
    unique = np.unique(np.asarray(blocks, dtype=np.int64))
    if aggregate:
        lines.extend(
            str(prefix) for prefix in aggregate_blocks(unique, family=family)
        )
    else:
        lines.extend(str(family.block_to_prefix(int(block))) for block in unique)
    return lines


def write_prefix_list(
    blocks: np.ndarray,
    path: str | Path,
    comment: str | None = None,
    aggregate: bool = False,
    family: AddressFamily = IPV4,
) -> None:
    """Write block ids as a CIDR list, one prefix per line.

    Blocks are the family's classification unit (/24 for IPv4, /48 for
    IPv6).  With ``aggregate=True`` contiguous runs collapse into their
    minimal CIDR cover (what an operator actually ships to
    routers/ACLs).
    """
    lines = _format_prefix_lines(blocks, comment, aggregate, family)
    Path(path).write_text("\n".join(lines) + "\n")


def prefix_list_text(
    blocks: np.ndarray,
    comment: str | None = None,
    aggregate: bool = False,
    family: AddressFamily = IPV4,
) -> str:
    """The prefix list as a string (for pipes and tests).

    Renders through the same path as :func:`write_prefix_list`, so the
    two can never drift apart — including the ``aggregate`` option.
    """
    return "\n".join(_format_prefix_lines(blocks, comment, aggregate, family)) + "\n"


def _parse_prefix_lines(
    path: str | Path, strict: bool, family: AddressFamily = IPV4
) -> tuple[list, ParseReport]:
    report = ParseReport(path=str(path))
    prefixes = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        report.total_rows += 1
        try:
            prefix = family.parse_prefix(line)
            if prefix.length > family.block_prefix_length:
                raise ValueError(
                    f"finer than /{family.block_prefix_length}: {line!r}"
                )
        except ValueError as error:
            if strict:
                raise ValueError(f"{path}:{lineno}: {error}") from None
            report.errors.append(
                RowError(line=lineno, message=str(error), text=line)
            )
            continue
        report.good_rows += 1
        prefixes.append(prefix)
    return prefixes, report


def read_prefix_list(
    path: str | Path, family: AddressFamily = IPV4
) -> np.ndarray:
    """Read a CIDR list written by :func:`write_prefix_list`.

    Entries at the family's block length or shorter are expanded back
    to block ids; blank lines and ``#`` comments are skipped.
    Malformed entries raise with the file name and line number.
    """
    prefixes, _ = _parse_prefix_lines(path, strict=True, family=family)
    return expand_prefixes(prefixes, family=family)


def read_prefix_list_lenient(
    path: str | Path, family: AddressFamily = IPV4
) -> tuple[np.ndarray, ParseReport]:
    """Like :func:`read_prefix_list`, but bad lines are collected.

    Returns the blocks that did parse, plus the :class:`ParseReport`
    naming every skipped line.
    """
    prefixes, report = _parse_prefix_lines(path, strict=False, family=family)
    return expand_prefixes(prefixes, family=family), report


# -- flow tables --------------------------------------------------------


def _csv_field_strings(column: np.ndarray) -> np.ndarray:
    """One column as decimal strings, matching ``csv.writer`` bytes.

    Signed/bool columns go through int64 (bools render ``0``/``1`` as
    the historical writer did); uint64 columns must not — an IPv6
    interface id can exceed 2**63-1, which int64 would wrap negative.
    """
    column = np.asarray(column)
    if column.dtype == np.uint64:
        return column.astype("U20")
    return column.astype(np.int64).astype("U20")


def _render_csv_rows(flows: FlowTable) -> str:
    """Render a flow table's data rows as CSV text, column-wise.

    Each numpy column becomes decimal strings in one vectorised
    ``astype`` and the field arrays are joined with ``np.char.add`` —
    no per-cell Python ``int()`` call.  The bytes match the historical
    ``csv.writer`` output exactly (CRLF line terminators included), so
    existing archives diff clean.  Empty tables render to ``""``.
    """
    if len(flows) == 0:
        return ""
    fields = [
        _csv_field_strings(getattr(flows, name)) for name in flows.columns()
    ]
    rows = fields[0]
    comma = np.array(",", dtype="U1")
    for column in fields[1:]:
        rows = np.char.add(np.char.add(rows, comma), column)
    return "\r\n".join(rows.tolist()) + "\r\n"


def write_flows_csv(flows: FlowTable, path: str | Path) -> None:
    """Write a flow table as CSV (header = column names).

    The header names the table's family schema (the IPv6 schema adds
    the uint64 key and ``*_ip_lo`` columns); readers dispatch on it.
    The writer is vectorised (see :func:`_render_csv_rows`); IPv4
    output is byte-identical to the per-row ``csv.writer`` it replaced.
    """
    header = ",".join(flows.columns()) + "\r\n"
    Path(path).write_text(header + _render_csv_rows(flows), newline="")


#: Body bytes read per block; each block is cut back to its last newline,
#: so a block always holds whole lines.
_BLOCK_BYTES = 1 << 20

#: The only bytes a plain block holds (``-`` for the signed columns'
#: negatives, such as an unknown ASN's -1).
_PLAIN_BYTES = b"0123456789,-\r\n"


def _header_family(header: list[str] | None) -> str:
    """The address family whose schema matches a CSV header row."""
    for name in (FAMILY_IPV4, FAMILY_IPV6):
        if header == list(flow_columns(name)):
            return name
    raise ValueError(f"unexpected flow CSV header: {header}")


def _plain_header_family(handle) -> str | None:
    """The family whose header :func:`write_flows_csv` wrote, byte for byte.

    Reads at most the longest such header line from a binary
    ``handle``.  ``None`` for any other first line, which then goes
    through ``csv.reader`` with the rest of the file.
    """
    headers = {
        name: ",".join(flow_columns(name)).encode()
        for name in (FAMILY_IPV4, FAMILY_IPV6)
    }
    line = handle.readline(2 + max(map(len, headers.values())))
    for name, header in headers.items():
        if line in (header + b"\r\n", header + b"\n"):
            return name
    return None


def _line_blocks(handle) -> Iterator[bytes]:
    """The rest of a binary ``handle`` as blocks of whole lines.

    No block is longer than ``_BLOCK_BYTES``, the partial line carried
    from the previous read included.  The file's last line may lack its
    newline.  A line longer than a block ends the blocks early: that
    line is left to the per-row path.
    """
    carry = b""
    while data := handle.read(_BLOCK_BYTES - len(carry)):
        data = carry + data
        cut = data.rfind(b"\n") + 1
        if not cut:
            return
        carry = data[cut:]
        yield data[:cut]
    if carry:
        yield carry


def _plain_columns(
    block: bytes, dtypes: list[np.dtype]
) -> tuple[list[np.ndarray], int] | None:
    """A plain block's rows as column arrays, with its line count.

    A block is plain when it holds only digits, commas, minus signs and
    newlines, and every CR is the first half of a CRLF.  It then has no
    plus sign, space, underscore, quote or comment, and its lines are
    exactly its LFs.  Blank lines are skipped, as ``csv.reader`` skips
    them.  Each field is read by numpy's C text reader as uint64 in a
    uint64 column and as int64 in any other, then range-checked against
    its column's dtype (the bool flag takes any integer).

    This relies on ``np.loadtxt`` raising ``ValueError`` for any integer
    field that ``int()`` would not give the same value for: an empty
    field, a misplaced or doubled ``-``, a ``-`` in a uint64 column, or
    a value past the parse dtype.  Older numpy instead reads such a
    field through a float and warns with a ``DeprecationWarning``; that
    warning is raised as an error here, so it also hands over.

    ``None`` when the block is not plain, or some row needs the per-row
    path: any of the fields above, a ragged row, a value outside its
    column's dtype, or no row at all.
    """
    # A block of blank lines only would make loadtxt warn.
    if block.translate(None, _PLAIN_BYTES) or not block.strip(b"\r\n"):
        return None
    codes = np.frombuffer(block, dtype=np.uint8)
    lf, cr = codes == 10, codes == 13
    if cr[-1] or (cr[:-1] > lf[1:]).any():
        return None
    parse = np.dtype([
        (f"f{i}", np.uint64 if d == np.uint64 else np.int64)
        for i, d in enumerate(dtypes)
    ])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            records = np.loadtxt(
                BytesIO(block), delimiter=",", dtype=parse,
                comments=None, quotechar=None, ndmin=1,
            )
    except (ValueError, DeprecationWarning):
        return None
    columns = []
    for name, dtype in zip(parse.names, dtypes):
        values = records[name]
        if dtype != bool:
            info = np.iinfo(dtype)
            if values.min() < info.min or values.max() > info.max:
                return None
        columns.append(values.astype(dtype))
    return columns, int(np.count_nonzero(lf))


def _parsed_rows(
    reader,
    skipped_lines: int,
    path: str | Path,
    family: str,
    strict: bool,
    report: ParseReport,
) -> Iterator[tuple[int, ...]]:
    """The per-row path: ``csv.reader`` rows through ``int()``.

    Line numbers are ``reader.line_num`` plus the ``skipped_lines``
    consumed before this reader started.  A value outside its column's
    dtype is row damage like any other (the bool ``spoofed`` flag takes
    any integer, nonzero meaning True).  Malformed rows raise with the
    file name and 1-based line number in strict mode and are collected
    into ``report`` otherwise.  Trailing blank lines (and stray empty
    records) are not data; both modes skip them.
    """
    columns = flow_columns(family)
    expected = len(columns)
    bounds = [
        (-np.inf, np.inf) if dtype == bool
        else (int(np.iinfo(dtype).min), int(np.iinfo(dtype).max))
        for dtype in columns.values()
    ]
    lows, highs = zip(*bounds)
    for row in reader:
        # Every cell blank (or no cell at all).
        if not "".join(row).strip():
            continue
        report.total_rows += 1
        try:
            if len(row) != expected:
                raise ValueError(f"expected {expected} fields, got {len(row)}")
            parsed = tuple(map(int, row))
            # Two C-level sweeps; the per-column loop runs only on a miss.
            if not (all(map(le, lows, parsed)) and all(map(le, parsed, highs))):
                for name, value, (low, high) in zip(columns, parsed, bounds):
                    if not low <= value <= high:
                        raise ValueError(
                            f"column {name!r}: {value} outside "
                            f"{columns[name]} [{low}, {high}]"
                        )
        except ValueError as error:
            lineno = skipped_lines + reader.line_num
            if strict:
                raise ValueError(f"{path}:{lineno}: {error}") from None
            report.errors.append(
                RowError(line=lineno, message=str(error), text=",".join(row))
            )
            continue
        report.good_rows += 1
        yield parsed


def _iter_flow_columns(
    path: str | Path,
    strict: bool,
    report: ParseReport,
    flush_rows: int | None,
) -> Iterator:
    """The one core every CSV flow reader drives.

    The *first* yielded item is the family name resolved from the
    header (always fatal when it matches neither schema); every later
    item is a run of good rows, in file order, as a list of column
    arrays in schema order.

    Behind the writer's own header the body is read in blocks of whole
    lines, and each plain block (:func:`_plain_columns`) is one run.
    From the first block that is not plain, and for a file with any
    other header from its first line, the rest goes through
    :func:`_parsed_rows`.  That path yields a run whenever the good
    rows so far reach a multiple of ``flush_rows`` (``None``: once, at
    the end), so a strict stream's chunks land before a bad row raises,
    exactly as when every row went that way.
    """
    with open(path, "rb") as handle:
        family = _plain_header_family(handle)
        plain = family is not None
        if not plain:
            handle.seek(0)
            reader = csv.reader(TextIOWrapper(handle, newline=""))
            family = _header_family(next(reader, None))
        yield family
        dtypes = list(flow_columns(family).values())
        skipped_lines = 0
        if plain:
            skipped_lines, offset = 1, handle.tell()
            for block in _line_blocks(handle):
                parsed = _plain_columns(block, dtypes)
                if parsed is None:
                    break
                columns, lines = parsed
                skipped_lines += lines
                offset += len(block)
                report.total_rows += len(columns[0])
                report.good_rows += len(columns[0])
                yield columns
            handle.seek(offset)
            reader = csv.reader(TextIOWrapper(handle, newline=""))
        rows = []
        for row in _parsed_rows(
            reader, skipped_lines, path, family, strict, report
        ):
            rows.append(row)
            if flush_rows and report.good_rows % flush_rows == 0:
                yield _row_columns(rows, dtypes)
                rows = []
        if rows:
            yield _row_columns(rows, dtypes)


def _row_columns(rows: list[tuple[int, ...]], dtypes: list) -> list[np.ndarray]:
    """Parsed row tuples as column arrays (values already range-checked)."""
    return [np.array(values, dtype=d) for values, d in zip(zip(*rows), dtypes)]


def _flow_table(runs: list[list[np.ndarray]], family: str) -> FlowTable:
    """Runs of column arrays stacked into one table."""
    if not runs:
        return FlowTable.empty(family)
    return FlowTable(
        **{
            name: np.concatenate(parts)
            for name, parts in zip(flow_columns(family), zip(*runs))
        },
        family=family,
    )


def iter_flows_csv(
    path: str | Path, chunk_rows: int = 65536
) -> Iterator[FlowTable]:
    """Stream a flow CSV as bounded-size :class:`FlowTable` chunks.

    The streaming counterpart of :func:`read_flows_csv` — strict (a
    malformed row raises with the file name and line number) — and
    every chunk has exactly ``chunk_rows`` rows but the last, which may
    be shorter.  Plain blocks of the body go through numpy's C text
    reader, anything else row by row through ``csv.reader`` (see
    :func:`_iter_flow_columns`).  Either way at most ``chunk_rows``
    parsed rows plus two blocks are held at once: the block being
    parsed (up to 1 MiB of text and its columns), and the columns of
    the previous one while its last rows wait for the next chunk.  So
    a multi-GB export can feed a
    :class:`repro.core.accum.PrefixAccumulator` without loading the day
    into memory.  Chunks concatenate to exactly the one-shot read.
    """
    if chunk_rows < 1:
        raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
    report = ParseReport(path=str(path))
    runs = _iter_flow_columns(path, True, report, chunk_rows)
    family = next(runs)
    pending, held = [], 0
    for run in runs:
        start, stop = 0, len(run[0])
        while held + stop - start >= chunk_rows:
            cut = start + chunk_rows - held
            pending.append([column[start:cut] for column in run])
            yield _flow_table(pending, family)
            pending, held, start = [], 0, cut
        if start < stop:
            pending.append([column[start:] for column in run])
            held += stop - start
    if pending:
        yield _flow_table(pending, family)


def _read_flows_csv(
    path: str | Path, strict: bool
) -> tuple[FlowTable, ParseReport]:
    report = ParseReport(path=str(path))
    family, *runs = _iter_flow_columns(path, strict, report, None)
    return _flow_table(runs, family), report


def read_flows_csv(path: str | Path) -> FlowTable:
    """Read a flow table written by :func:`write_flows_csv`.

    The family comes from the header, so an empty IPv6 export reads
    back as an empty IPv6 table.  Malformed rows (a value outside its
    column's dtype included) raise with the file name and line number;
    trailing blank lines are tolerated.
    """
    return _read_flows_csv(path, strict=True)[0]


def read_flows_csv_lenient(
    path: str | Path,
) -> tuple[FlowTable, ParseReport]:
    """Like :func:`read_flows_csv`, but damaged rows are collected.

    Row-level damage (wrong arity, non-integer fields, values outside
    their column's dtype) is skipped and reported; a wrong header is
    still fatal, because then *nothing* about the file can be trusted.
    """
    return _read_flows_csv(path, strict=False)


# -- flow archives (flowpack) -------------------------------------------
#
# The binary columnar counterpart of the CSV flow format lives in
# :mod:`repro.flowpack`; its public API is re-exported here so callers
# keep a single serialisation module.  ``iter_flows_archive`` /
# ``read_flows_archive_lenient`` mirror their ``*_csv`` counterparts
# exactly (strictness, chunking, ParseReport).

from repro.flowpack import (  # noqa: E402  (re-export)
    FlowpackArchive as FlowpackArchive,
    FlowpackError as FlowpackError,
    FlowpackWriter as FlowpackWriter,
    is_flowpack as is_flowpack,
    iter_flows_archive as iter_flows_archive,
    read_flows_archive_lenient as read_flows_archive_lenient,
    write_flows_archive as write_flows_archive,
)

#: Flow-table serialisation formats the CLI and converters accept.
FLOW_FORMATS = ("csv", "flowpack")


def sniff_flow_format(path: str | Path) -> str:
    """``"flowpack"`` or ``"csv"``, by magic bytes (not extension)."""
    return "flowpack" if is_flowpack(path) else "csv"


def convert_flows(
    source: str | Path,
    target: str | Path,
    to: str,
    chunk_rows: int = 65536,
) -> int:
    """Convert a flow file between formats, streaming; returns rows.

    The source format is sniffed from its magic bytes.  Conversion is
    chunked in both directions, so a multi-GB file converts in bounded
    memory; CSV → flowpack produces one segment per chunk (what a
    chunked capture stream would have written), and flowpack → CSV
    verifies every segment checksum on the way out.
    """
    if to not in FLOW_FORMATS:
        raise ValueError(f"unknown target format {to!r}; choose {FLOW_FORMATS}")
    source_format = sniff_flow_format(source)
    chunks = (
        iter_flows_archive(source, chunk_rows=chunk_rows)
        if source_format == "flowpack"
        else iter_flows_csv(source, chunk_rows=chunk_rows)
    )
    # Both writers need the family before the first chunk lands (the
    # flowpack header and the CSV header both encode the schema), so
    # peek one chunk; a source with no rows converts as IPv4.
    chunks = iter(chunks)
    first = next(chunks, None)
    all_chunks = chain([first], chunks) if first is not None else iter(())
    rows = 0
    if to == "flowpack":
        family = first.family if first is not None else FAMILY_IPV4
        with FlowpackWriter(target, family=family) as writer:
            for chunk in all_chunks:
                writer.write(chunk)
                rows += len(chunk)
        return rows
    # Chunked CSV write: the vectorised renderer formats each chunk,
    # appended behind the single header.
    header = first.columns() if first is not None else FLOW_COLUMNS
    with open(target, "w", newline="") as handle:
        handle.write(",".join(header) + "\r\n")
        for chunk in all_chunks:
            handle.write(_render_csv_rows(chunk))
            rows += len(chunk)
    return rows


def write_flows(
    flows: FlowTable, path: str | Path, format: str = "csv"
) -> None:
    """Write a flow table in the named format (``csv``/``flowpack``)."""
    if format == "csv":
        write_flows_csv(flows, path)
    elif format == "flowpack":
        write_flows_archive(flows, path)
    else:
        raise ValueError(f"unknown flow format {format!r}; choose {FLOW_FORMATS}")

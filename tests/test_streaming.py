"""Chunked-ingestion contracts: tables, readers, CLI.

Every producer in the streaming path promises the same thing: its
bounded-size chunks concatenate to exactly what the one-shot call
returns.
"""

import csv

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.io
from repro.cli import main
from repro.core import kernels
from repro.core.kernels import DISABLE_NATIVE_ENV, native_provider
from repro.io import (
    ParseReport,
    RowError,
    iter_flows_csv,
    read_flows_csv,
    read_flows_csv_lenient,
    write_flows_csv,
)
from repro.net.family import FAMILY_IPV4, FAMILY_IPV6
from repro.traffic.flows import FlowTable, flow_columns

from _factories import make_flows, ip


def sample_flows(rows: int = 25) -> FlowTable:
    return make_flows(
        [
            {"src_ip": ip(1000 + i % 7), "dst_ip": ip(2000 + i % 5), "packets": 1 + i}
            for i in range(rows)
        ]
    )


class TestFlowTableChunks:
    def test_chunks_concat_roundtrip(self):
        flows = sample_flows()
        for chunk_rows in (1, 4, 25, 1000):
            rebuilt = FlowTable.concat(flows.iter_chunks(chunk_rows))
            np.testing.assert_array_equal(rebuilt.src_ip, flows.src_ip)
            np.testing.assert_array_equal(rebuilt.packets, flows.packets)

    def test_chunks_are_zero_copy(self):
        flows = sample_flows()
        for chunk in flows.iter_chunks(4):
            assert np.shares_memory(chunk.src_ip, flows.src_ip)
            assert np.shares_memory(chunk.packets, flows.packets)

    def test_chunk_sizes_bounded(self):
        sizes = [len(c) for c in sample_flows(25).iter_chunks(4)]
        assert sizes == [4, 4, 4, 4, 4, 4, 1]

    def test_none_yields_whole_table_once(self):
        flows = sample_flows()
        chunks = list(flows.iter_chunks(None))
        assert len(chunks) == 1 and chunks[0] is flows

    def test_empty_table_yields_nothing(self):
        assert list(FlowTable.empty().iter_chunks(5)) == []

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ValueError, match="chunk_rows"):
            list(sample_flows().iter_chunks(0))


class TestCsvStreaming:
    def test_chunks_concat_to_one_shot_read(self, tmp_path):
        flows = sample_flows(50)
        path = tmp_path / "flows.csv"
        write_flows_csv(flows, path)
        streamed = FlowTable.concat(iter_flows_csv(path, chunk_rows=7))
        whole = read_flows_csv(path)
        for name in ("src_ip", "dst_ip", "packets", "bytes"):
            np.testing.assert_array_equal(
                getattr(streamed, name), getattr(whole, name)
            )

    def test_chunk_sizes_bounded(self, tmp_path):
        path = tmp_path / "flows.csv"
        write_flows_csv(sample_flows(20), path)
        sizes = [len(c) for c in iter_flows_csv(path, chunk_rows=8)]
        assert sizes == [8, 8, 4]

    def test_strict_error_names_the_line(self, tmp_path):
        path = tmp_path / "flows.csv"
        write_flows_csv(sample_flows(5), path)
        lines = path.read_text().splitlines()
        lines[3] = lines[3].replace(lines[3].split(",")[0], "not-a-number", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"{path}:4: "):
            list(iter_flows_csv(path, chunk_rows=2))

    @pytest.mark.parametrize("value", ["4294967296", "-1"])
    def test_out_of_range_value_raises_with_line(self, tmp_path, value):
        path = tmp_path / "flows.csv"
        write_flows_csv(sample_flows(5), path)
        lines = path.read_text().splitlines()
        lines[3] = value + lines[3][lines[3].index(","):]
        path.write_text("\n".join(lines) + "\n")
        chunks = iter_flows_csv(path, chunk_rows=2)
        assert len(next(chunks)) == 2
        with pytest.raises(
            ValueError, match=rf"{path}:4: column 'src_ip': {value} outside"
        ):
            next(chunks)

    def test_header_mismatch_fatal(self, tmp_path):
        path = tmp_path / "flows.csv"
        path.write_text("wrong,header\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            list(iter_flows_csv(path))

    def test_bad_chunk_size_rejected(self, tmp_path):
        path = tmp_path / "flows.csv"
        write_flows_csv(sample_flows(2), path)
        with pytest.raises(ValueError, match="chunk_rows"):
            list(iter_flows_csv(path, chunk_rows=0))


def _oracle_rows(path, strict, report):
    """The per-row reader every CSV flow reader drove before block parsing.

    Kept here as the oracle, changed in one place: the range check
    marked below.  Without it an out-of-range value escaped as a bare
    ``OverflowError`` once the rows became columns.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        for family in (FAMILY_IPV4, FAMILY_IPV6):
            if header == list(flow_columns(family)):
                break
        else:
            raise ValueError(f"unexpected flow CSV header: {header}")
        columns = flow_columns(family)
        yield family
        for row in reader:
            if not row or all(not cell.strip() for cell in row):
                continue
            report.total_rows += 1
            lineno = reader.line_num
            try:
                if len(row) != len(columns):
                    raise ValueError(
                        f"expected {len(columns)} fields, got {len(row)}"
                    )
                parsed = tuple(int(v) for v in row)
                for (name, dtype), value in zip(columns.items(), parsed):
                    # The fix: a value outside its column's dtype is row damage.
                    info = None if dtype == bool else np.iinfo(dtype)
                    if info and not info.min <= value <= info.max:
                        raise ValueError(
                            f"column {name!r}: {value} outside {dtype} "
                            f"[{info.min}, {info.max}]"
                        )
            except ValueError as error:
                if strict:
                    raise ValueError(f"{path}:{lineno}: {error}") from None
                report.errors.append(
                    RowError(line=lineno, message=str(error), text=",".join(row))
                )
                continue
            report.good_rows += 1
            yield parsed


def _oracle_table(rows, family):
    if not rows:
        return FlowTable.empty(family)
    return FlowTable(
        **{
            name: np.array([row[i] for row in rows], dtype=dtype)
            for i, (name, dtype) in enumerate(flow_columns(family).items())
        },
        family=family,
    )


def _oracle_chunks(path, chunk_rows):
    rows = _oracle_rows(path, True, ParseReport(path=str(path)))
    family = next(rows)
    pending = []
    for parsed in rows:
        pending.append(parsed)
        if len(pending) == chunk_rows:
            yield _oracle_table(pending, family)
            pending = []
    if pending:
        yield _oracle_table(pending, family)


def _oracle_read(path, strict):
    report = ParseReport(path=str(path))
    family, *rows = _oracle_rows(path, strict, report)
    return _oracle_table(rows, family), report


def _columns(table):
    """A table as plain data: its family, then each column's dtype and bytes."""
    return table.family, [
        (name, getattr(table, name).dtype.str, getattr(table, name).tobytes())
        for name in table.columns()
    ]


def _lenient(read):
    table, report = read
    return _columns(table), report


def _outcome(call):
    """What a read produced: its value, or its error message."""
    try:
        return call(), None
    except ValueError as error:
        return None, str(error)


def _stream(chunks):
    """Every chunk a stream yields, then the message it stopped on."""
    seen = []
    try:
        for chunk in chunks:
            seen.append(_columns(chunk))
    except ValueError as error:
        return seen, str(error)
    return seen, None


_DAMAGE = (
    "sign", "dash", "space", "underscore", "quoted", "quoted_newline",
    "blank", "whitespace", "ragged", "empty_field", "twenty_digits",
    "lone_cr", "out_of_range", "garbage", "comment",
)


def _good_value(draw, dtype):
    """A value the writer can emit: the signed columns' negatives
    (an unknown ASN's -1, say) included."""
    if dtype == bool:
        return draw(st.integers(0, 1))
    info = np.iinfo(dtype)
    if info.min < 0 and draw(st.booleans()):
        return -1
    return draw(st.integers(int(info.min), int(info.max)))


def _damaged_line(draw, columns, newline, kind):
    """One body line: a good row, or a row with one kind of damage."""
    dtypes = list(columns.values())
    fields = [str(_good_value(draw, dtype)) for dtype in dtypes]
    i = draw(st.integers(0, len(fields) - 1))
    end = newline
    if kind == "sign":
        fields[i] = draw(st.sampled_from("+-")) + fields[i]
    elif kind == "dash":
        digits = fields[i].lstrip("-")
        fields[i] = draw(st.sampled_from([
            "-", "--" + digits, digits + "-", digits[:1] + "-" + digits[1:],
            "-" + digits,
        ]))
    elif kind == "space":
        fields[i] = draw(st.sampled_from([" " + fields[i], fields[i] + " "]))
    elif kind == "underscore":
        fields[i] = fields[i][:1] + "_" + fields[i][1:]
    elif kind == "quoted":
        fields[i] = f'"{fields[i]}"'
    elif kind == "quoted_newline":
        fields[i] = f'"{fields[i]}{newline}"'
    elif kind == "blank":
        return end
    elif kind == "whitespace":
        return draw(st.sampled_from([" ", "\t", " , ", ",,,"])) + end
    elif kind == "ragged":
        fields = fields[:-1] if draw(st.booleans()) else fields + ["1"]
    elif kind == "empty_field":
        fields[i] = ""
    elif kind == "twenty_digits":
        fields[i] = draw(st.sampled_from([
            "18446744073709551615", "18446744073709551616",
            "99999999999999999999", "00000000000000000007",
        ]))
    elif kind == "lone_cr":
        if draw(st.booleans()):
            end = "\r"
        else:
            fields[i] += "\r"
    elif kind == "out_of_range":
        i = draw(st.sampled_from(
            [k for k, dtype in enumerate(dtypes) if dtype != bool]
        ))
        info = np.iinfo(dtypes[i])
        fields[i] = str(draw(st.sampled_from([info.max + 1, info.min - 1])))
    elif kind == "garbage":
        fields[i] = "oops"
    elif kind == "comment":
        fields[0] = "#" + fields[0]
    return ",".join(fields) + end


@st.composite
def _damaged_csv(draw):
    """A flow CSV's bytes: either family, LF or CRLF, damage on a few lines.

    Damage is sparse, so most blocks stay plain and the hand-over from
    blocks to rows happens mid-file.
    """
    if draw(st.integers(0, 19)) == 0:
        return b""
    columns = flow_columns(draw(st.sampled_from([FAMILY_IPV4, FAMILY_IPV6])))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    header = ",".join(columns)
    if draw(st.integers(0, 9)) == 0:
        # csv.reader reads the same header, but not from the writer's bytes.
        header = '"src_ip"' + header[len("src_ip"):]
    rows = draw(st.integers(0, 40))
    damage = dict(draw(st.lists(
        st.tuples(st.integers(0, rows), st.sampled_from(_DAMAGE)), max_size=5
    )))
    lines = [header + newline] + [
        _damaged_line(draw, columns, newline, damage.get(row, "good"))
        for row in range(rows)
    ]
    text = "".join(lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text.encode()


def _same_chunks_property(test):
    """The block-vs-row property's settings and draws."""
    return settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )(given(
        data=_damaged_csv(),
        spare=st.integers(0, 96),
        chunk_rows=st.integers(1, 9),
    )(test))


class TestBlockReaderMatchesRowReader:
    """The block reader against the per-row reader it replaced.

    The block constant is patched small, so damage lands on both sides
    of a block cut.  Chunks (sizes and column bytes), ParseReports and
    strict messages must all be equal.  Blocks go through the native
    C parser here (when it builds) and through the ``np.loadtxt``
    reference in :class:`TestReferenceBlockReaderMatchesRowReader`.
    """

    @_same_chunks_property
    def test_same_chunks_reports_and_messages(
        self, tmp_path, data, spare, chunk_rows
    ):
        path = tmp_path / "flows.csv"
        path.write_bytes(data)
        # Blocks of one line, a few, or shorter than the longest line
        # (which hands the rest of the file to the per-row path).
        longest = max(map(len, data.split(b"\n")))
        block_bytes = max(16, longest + spare - 32)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(repro.io, "_BLOCK_BYTES", block_bytes)
            assert _stream(iter_flows_csv(path, chunk_rows)) == _stream(
                _oracle_chunks(path, chunk_rows)
            )
            assert _outcome(lambda: _columns(read_flows_csv(path))) == _outcome(
                lambda: _columns(_oracle_read(path, True)[0])
            )
            assert _outcome(
                lambda: _lenient(read_flows_csv_lenient(path))
            ) == _outcome(lambda: _lenient(_oracle_read(path, False)))

    @pytest.mark.parametrize("family, line", [
        (FAMILY_IPV4, "1,2,3,4,5,6,7,8"),  # one field short
        (FAMILY_IPV4, "1,2,3,4,5,6,7,8,0,1"),  # one field long
        (FAMILY_IPV4, "1"),
        (FAMILY_IPV4, ",,,,,,,,"),  # blank to csv.reader
        (FAMILY_IPV4, "1,2,3,4,5,6,7,8,"),  # empty field
        (FAMILY_IPV4, "4294967296,2,3,4,5,6,7,8,0"),  # past uint32
        (FAMILY_IPV4, "1,2,256,4,5,6,7,8,0"),  # past uint8
        (FAMILY_IPV4, "1,2,3,4,9223372036854775808,6,7,8,0"),  # past int64
        (FAMILY_IPV4, "1,2,3,4,5,6,7,8,18446744073709551616"),  # past 2**64-1
        (FAMILY_IPV4, "99999999999999999999,2,3,4,5,6,7,8,0"),  # past 2**64-1
        (FAMILY_IPV4, "1,2,3,4,5,6,7,8,2"),  # the flag takes any integer
        (FAMILY_IPV4, "1,2,3,4,5,6,7,8,-1"),
        (FAMILY_IPV4, "1,2,3,4,5,6,-1,-1,0"),  # unknown ASNs
        (FAMILY_IPV4, "1,2,3,4,-0,6,-2147483648,7,0"),
        (FAMILY_IPV4, "1,2,3,4,5,6,-2147483649,7,0"),  # past int32
        (FAMILY_IPV4, "-1,2,3,4,5,6,7,8,0"),  # negative unsigned
        (FAMILY_IPV4, "1,2,3,4,-,6,7,8,0"),
        (FAMILY_IPV4, "1,2,3,4,--5,6,7,8,0"),
        (FAMILY_IPV4, "1,2,3,4,5-,6,7,8,0"),
        (FAMILY_IPV4, "1,2,3,4,5-6,6,7,8,0"),
        (FAMILY_IPV4, ""),
        (FAMILY_IPV6, "1,2,6,23,1,40,-1,-1,0,18446744073709551615,4"),
        (FAMILY_IPV6, "1,2,6,23,1,40,7,8,0,18446744073709551616,4"),  # past 2**64-1
        (FAMILY_IPV6, "18446744073709551616,2,6,23,1,40,7,8,0,3,4"),
        (FAMILY_IPV6, "1,2,6,23,1,40,7,8,0,-1,4"),  # negative uint64
        (FAMILY_IPV6, "1,2,6,23,1,40,7,8,0,3"),
    ])
    def test_plain_damage_alone_in_its_block(
        self, tmp_path, monkeypatch, family, line
    ):
        good = {
            FAMILY_IPV4: "16843009,33686018,6,23,1,40,65000,65001,0",
            FAMILY_IPV6: "1,2,6,23,1,40,65000,-1,0,3,4",
        }[family]
        body = [good] * 3 + [line] + [good] * 3
        path = tmp_path / "flows.csv"
        path.write_text(
            ",".join(flow_columns(family)) + "\r\n"
            + "".join(row + "\r\n" for row in body),
            newline="",
        )
        # Room for the longest line, but not for it and another line.
        monkeypatch.setattr(
            repro.io, "_BLOCK_BYTES", max(len(good), len(line)) + 2
        )
        assert _stream(iter_flows_csv(path, 2)) == _stream(_oracle_chunks(path, 2))
        assert _outcome(
            lambda: _lenient(read_flows_csv_lenient(path))
        ) == _outcome(lambda: _lenient(_oracle_read(path, False)))

    def test_row_path_takes_only_what_blocks_cannot(self, tmp_path, monkeypatch):
        # Every row the writer emits stays on the block path, the -1 of
        # an unknown ASN included.
        path = tmp_path / "flows.csv"
        write_flows_csv(make_flows([
            {"src_ip": ip(1000 + i), "dst_ip": ip(2000 + i % 5),
             "sender_asn": -1 if i % 3 else 64500,
             "dst_asn": -1 if i % 4 else 64501, "spoofed": i % 7 == 0}
            for i in range(50)
        ]), path)
        monkeypatch.setattr(repro.io, "_BLOCK_BYTES", 256)
        per_row = []
        parsed_rows = repro.io._parsed_rows

        def counting(*args):
            for row in parsed_rows(*args):
                per_row.append(row)
                yield row

        monkeypatch.setattr(repro.io, "_parsed_rows", counting)
        assert len(read_flows_csv(path)) == 50
        assert per_row == []
        lines = path.read_text().splitlines()
        lines[45] = " " + lines[45]
        path.write_text("\n".join(lines) + "\n")
        assert len(read_flows_csv(path)) == 50
        assert 5 <= len(per_row) < 50


class TestReferenceBlockReaderMatchesRowReader(TestBlockReaderMatchesRowReader):
    """The same checks with the native provider disabled: plain blocks
    go through the ``np.loadtxt`` reference parser."""

    @pytest.fixture(autouse=True)
    def reference_parser(self, monkeypatch):
        # monkeypatch restores the environment and the loaded module
        # handle.
        monkeypatch.setenv(DISABLE_NATIVE_ENV, "1")
        monkeypatch.setattr(kernels, "_HANDLE", None)
        assert native_provider() is None

    @_same_chunks_property
    def test_same_chunks_reports_and_messages(
        self, tmp_path, data, spare, chunk_rows
    ):
        # Its own property test: hypothesis refuses one test run from
        # two classes (its differing-executors health check).
        super().test_same_chunks_reports_and_messages.hypothesis.inner_test(
            self, tmp_path, data, spare, chunk_rows
        )


class TestCliChunkSize:
    def test_funnel_accepts_chunk_size_and_prints_timings(self, capsys):
        assert main(
            ["funnel", "--scale", "micro", "--chunk-size", "500"]
        ) == 0
        out = capsys.readouterr().out
        assert "observed /24 subnets" in out
        for stage in ("tcp", "avg-size", "source-unseen", "volume", "classify"):
            assert stage in out

    def test_chunk_size_does_not_change_the_funnel(self, capsys):
        assert main(["funnel", "--scale", "micro"]) == 0
        plain = capsys.readouterr().out
        assert main(["funnel", "--scale", "micro", "--chunk-size", "73"]) == 0
        chunked = capsys.readouterr().out
        # Same funnel table; only the timing numbers may differ.
        funnel = lambda text: text.split("\n\n")[0]  # noqa: E731
        assert funnel(plain) == funnel(chunked)

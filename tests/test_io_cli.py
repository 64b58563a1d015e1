"""Tests for serialisation (repro.io) and the CLI (repro.cli)."""

import json

import numpy as np
import pytest

from repro.io import (
    prefix_list_text,
    read_flows_csv,
    read_flows_csv_lenient,
    read_prefix_list,
    read_prefix_list_lenient,
    write_flows_csv,
    write_prefix_list,
)
from repro.net.ipv4 import parse_ip

from _factories import make_flows


class TestPrefixList:
    def test_roundtrip(self, tmp_path):
        blocks = np.array([parse_ip("10.0.1.0") >> 8, parse_ip("10.0.0.0") >> 8])
        path = tmp_path / "prefixes.txt"
        write_prefix_list(blocks, path, comment="test list")
        text = path.read_text()
        assert text.startswith("# test list\n10.0.0.0/24\n10.0.1.0/24")
        assert read_prefix_list(path).tolist() == sorted(blocks.tolist())

    def test_dedup(self, tmp_path):
        path = tmp_path / "p.txt"
        write_prefix_list(np.array([5, 5, 5]), path)
        assert read_prefix_list(path).tolist() == [5]

    def test_blank_lines_and_comments_skipped(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("# header\n\n0.0.5.0/24\n")
        assert read_prefix_list(path).tolist() == [5]

    def test_expands_aggregated_entries(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("10.0.0.0/23\n")
        blocks = read_prefix_list(path)
        assert len(blocks) == 2

    def test_rejects_finer_than_slash24(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("10.0.0.0/25\n")
        with pytest.raises(ValueError):
            read_prefix_list(path)

    def test_aggregate_roundtrip(self, tmp_path):
        base = parse_ip("10.0.0.0") >> 8
        blocks = np.arange(base, base + 8)
        path = tmp_path / "p.txt"
        write_prefix_list(blocks, path, aggregate=True)
        assert "10.0.0.0/21" in path.read_text()
        assert read_prefix_list(path).tolist() == blocks.tolist()

    def test_text_variant(self):
        text = prefix_list_text(np.array([5]), comment="c")
        assert text == "# c\n0.0.5.0/24\n"

    def test_text_matches_file_output(self, tmp_path):
        blocks = np.arange(40, 48)
        for aggregate in (False, True):
            path = tmp_path / "p.txt"
            write_prefix_list(blocks, path, comment="hdr", aggregate=aggregate)
            assert path.read_text() == prefix_list_text(
                blocks, comment="hdr", aggregate=aggregate
            )

    def test_text_supports_aggregation(self):
        text = prefix_list_text(np.arange(40, 48), aggregate=True)
        assert text == "0.0.40.0/21\n"

    def test_parse_error_names_the_line(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("# header\n0.0.5.0/24\nnot-a-prefix\n")
        with pytest.raises(ValueError, match=r"p\.txt:3:"):
            read_prefix_list(path)

    def test_too_fine_error_names_the_line(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("0.0.5.0/24\n10.0.0.0/25\n")
        with pytest.raises(ValueError, match=r"p\.txt:2: finer than /24"):
            read_prefix_list(path)

    def test_trailing_blank_lines_tolerated(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("0.0.5.0/24\n\n\n")
        assert read_prefix_list(path).tolist() == [5]

    def test_lenient_collects_bad_lines(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("0.0.5.0/24\ngarbage\n0.0.6.0/24\n10.0.0.0/30\n")
        blocks, report = read_prefix_list_lenient(path)
        assert blocks.tolist() == [5, 6]
        assert not report.ok()
        assert [error.line for error in report.errors] == [2, 4]
        assert report.good_rows == 2
        assert report.total_rows == 4
        assert "line 2" in report.summary()


class TestFlowsCsv:
    def test_roundtrip(self, tmp_path):
        flows = make_flows(
            [
                {"src_ip": 123, "dst_ip": 456, "packets": 7, "bytes": 280,
                 "spoofed": True},
                {"dport": 443, "sender_asn": 9},
            ]
        )
        path = tmp_path / "flows.csv"
        write_flows_csv(flows, path)
        loaded = read_flows_csv(path)
        assert len(loaded) == 2
        assert loaded.src_ip.tolist() == flows.src_ip.tolist()
        assert loaded.packets.tolist() == flows.packets.tolist()
        assert loaded.spoofed.tolist() == flows.spoofed.tolist()

    def test_empty_roundtrip(self, tmp_path):
        path = tmp_path / "flows.csv"
        write_flows_csv(make_flows([]), path)
        assert len(read_flows_csv(path)) == 0

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_flows_csv(path)

    def test_trailing_blank_lines_tolerated(self, tmp_path):
        flows = make_flows([{"packets": 3}])
        path = tmp_path / "flows.csv"
        write_flows_csv(flows, path)
        path.write_text(path.read_text() + "\n\n")
        assert len(read_flows_csv(path)) == 1

    def test_strict_error_names_the_line(self, tmp_path):
        path = tmp_path / "flows.csv"
        write_flows_csv(make_flows([{}, {}]), path)
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace(",", ",oops,", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"flows\.csv:3:"):
            read_flows_csv(path)

    def test_lenient_skips_damaged_rows(self, tmp_path):
        path = tmp_path / "flows.csv"
        write_flows_csv(make_flows([{"packets": 1}, {"packets": 2},
                                    {"packets": 3}]), path)
        lines = path.read_text().splitlines()
        lines[2] = "garbage"
        path.write_text("\n".join(lines) + "\n")
        flows, report = read_flows_csv_lenient(path)
        assert flows.packets.tolist() == [1, 3]
        assert [error.line for error in report.errors] == [3]
        assert (report.total_rows, report.good_rows) == (3, 2)

    def test_lenient_header_mismatch_still_fatal(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_flows_csv_lenient(path)

    @pytest.mark.parametrize("value", ["4294967296", "-1"])
    def test_out_of_range_value_names_file_line_and_column(self, tmp_path, value):
        path = tmp_path / "flows.csv"
        write_flows_csv(make_flows([{}, {}, {}]), path)
        lines = path.read_text().splitlines()
        lines[2] = value + lines[2][lines[2].index(","):]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(
            ValueError,
            match=rf"flows\.csv:3: column 'src_ip': {value} outside uint32",
        ):
            read_flows_csv(path)

    @pytest.mark.parametrize("value", ["4294967296", "-1"])
    def test_lenient_rejects_out_of_range_row(self, tmp_path, value):
        path = tmp_path / "flows.csv"
        write_flows_csv(make_flows([{"packets": 1}, {"packets": 2},
                                    {"packets": 3}]), path)
        lines = path.read_text().splitlines()
        lines[2] = value + lines[2][lines[2].index(","):]
        path.write_text("\n".join(lines) + "\n")
        flows, report = read_flows_csv_lenient(path)
        assert flows.packets.tolist() == [1, 3]
        assert [error.line for error in report.errors] == [3]
        assert report.errors[0].message.startswith(
            f"column 'src_ip': {value} outside uint32"
        )

    def test_lenient_clean_file_reports_ok(self, tmp_path):
        path = tmp_path / "flows.csv"
        write_flows_csv(make_flows([{}]), path)
        flows, report = read_flows_csv_lenient(path)
        assert len(flows) == 1
        assert report.ok()
        assert "no errors" in report.summary()


class TestCli:
    def test_parser_commands(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["demo", "--scale", "micro"])
        assert args.scale == "micro"
        assert args.handler is not None

    def test_demo_runs(self, capsys):
        from repro.cli import main

        assert main(["demo", "--scale", "micro"]) == 0
        out = capsys.readouterr().out
        assert "final meta-telescope" in out
        assert "ground truth" in out

    def test_funnel_runs(self, capsys):
        from repro.cli import main

        assert main(["funnel", "--scale", "micro", "--vantage", "CE1"]) == 0
        assert "observed /24 subnets" in capsys.readouterr().out

    def test_infer_writes_file(self, tmp_path, capsys):
        from repro.cli import main

        output = tmp_path / "list.txt"
        assert main(["infer", "--scale", "micro", "--output", str(output)]) == 0
        blocks = read_prefix_list(output)
        assert len(blocks) > 0

    def test_infer_and_report_state_the_days_folded(self, tmp_path, capsys):
        from repro.cli import main
        from repro.world.config import micro_config

        # --days past the campaign folds the campaign; both products say so.
        days = micro_config().num_days
        prefixes = tmp_path / "list.txt"
        assert main([
            "infer", "--scale", "micro", "--days", "30",
            "--output", str(prefixes),
        ]) == 0
        assert prefixes.read_text().splitlines()[0].endswith(f" days={days}")
        report = tmp_path / "report.md"
        assert main([
            "report", "--scale", "micro", "--days", "30",
            "--output", str(report),
        ]) == 0
        assert report.read_text().splitlines()[0] == (
            f"# Meta-telescope report — All, {days} day(s)"
        )

    def test_ipv4_only_commands_reject_ipv6(self, capsys):
        from repro.cli import main

        for argv in (
            ["scenarios", "list"],
            ["scenarios", "run"],
            ["funnel"],
        ):
            with pytest.raises(SystemExit) as raised:
                main([*argv, "--scale", "micro", "--family", "ipv6"])
            assert raised.value.code == (
                "--family ipv6 is supported by the infer and plan commands, "
                f"not {argv[0]}"
            )
        assert capsys.readouterr().out == ""

    def test_telescopes_runs(self, capsys):
        from repro.cli import main

        assert main(["telescopes", "--scale", "micro"]) == 0
        out = capsys.readouterr().out
        assert "TUS1" in out

    def test_ports_runs(self, capsys):
        from repro.cli import main

        assert main(["ports", "--scale", "micro", "--count", "3"]) == 0
        assert "23" in capsys.readouterr().out

    def test_unknown_vantage_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["funnel", "--scale", "micro", "--vantage", "NOPE"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["faults", "--days", "2"],
            ["serve", "--days", "2", "--warm-days", "0", "--port", "0",
             "--exit-after", "1"],
        ],
        ids=["faults", "serve"],
    )
    def test_online_commands_name_the_valid_vantages(self, argv, capsys):
        from repro.cli import main

        # Checked once the world exists, before a day is folded or a
        # port is opened: the same message infer and demo give.
        with pytest.raises(SystemExit) as raised:
            main([*argv, "--scale", "micro", "--vantage", "NOPE"])
        assert "unknown vantage 'NOPE'; choose from All, CE1" in str(
            raised.value.code
        )
        assert capsys.readouterr().out == ""

    def test_plan_prints_without_executing(self, capsys):
        from repro.cli import main

        assert main([
            "plan", "--scale", "micro", "--days", "2", "--workers", "2",
            "--chunk-size", "100",
        ]) == 0
        out = capsys.readouterr().out
        assert "execution plan" in out
        assert "parallel" in out
        assert "final meta-telescope" not in out  # nothing was inferred
        # Title, header and rule, then one row per plan field, in order.
        rows = out.splitlines()[3:]
        assert [row.split("  ")[0] for row in rows] == [
            "mode", "views", "rows", "storage", "days", "workers",
            "chunk rows", "kernel",
        ]

    def test_infer_explain_matches_plan(self, tmp_path, capsys):
        from repro.cli import main

        output = tmp_path / "p.txt"
        assert main([
            "infer", "--scale", "micro", "--explain",
            "--output", str(output),
        ]) == 0
        out = capsys.readouterr().out
        assert "execution plan" in out and "serial" in out
        assert not output.exists()  # --explain never runs the inference

    def test_trace_flag_writes_valid_jsonl(self, tmp_path, capsys):
        from repro.cli import main
        from repro.core.engine import validate_trace_file

        trace = tmp_path / "trace.jsonl"
        assert main([
            "demo", "--scale", "micro", "--days", "3", "--workers", "2",
            "--trace", str(trace),
        ]) == 0
        assert validate_trace_file(trace) > 0
        kinds = {
            json.loads(line)["kind"]
            for line in trace.read_text().splitlines()
        }
        assert {"plan", "generate", "worker", "merge", "stage"} <= kinds

    def test_faults_runs_all_classes(self, capsys):
        from repro.cli import main

        assert main(["faults", "--scale", "micro", "--days", "3"]) == 0
        out = capsys.readouterr().out
        assert "degraded operation" in out
        assert "carried" in out
        assert "injected day 1" in out

    def test_faults_single_class_and_policy(self, capsys):
        from repro.cli import main

        assert main([
            "faults", "--scale", "micro", "--days", "3",
            "--fault", "corrupt", "--policy", "skip", "--fault-day", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "skipped" in out
        assert "CorruptedFields" in out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["funnel", "--days", "0"], "argument --days: must be >= 1, got 0"),
            (
                ["infer", "--family", "ipv6", "--days", "-2"],
                "argument --days: must be >= 1, got -2",
            ),
            (["serve", "--days", "0"], "argument --days: must be >= 1, got 0"),
            (["faults", "--window", "0"], "argument --window: must be >= 1, got 0"),
            (
                ["serve", "--warm-days", "-1"],
                "argument --warm-days: must be >= 0, got -1",
            ),
            (
                ["faults", "--days", "3", "--fault-day", "7"],
                "argument --fault-day: day 7 is outside [0, 3)",
            ),
            (
                ["faults", "--days", "3", "--fault-day", "-1"],
                "argument --fault-day: day -1 is outside [0, 3)",
            ),
        ],
        ids=["days", "days-ipv6", "serve-days", "window", "warm-days",
             "fault-day-past", "fault-day-negative"],
    )
    def test_out_of_range_day_counts_are_usage_errors(self, argv, message, capsys):
        from repro.cli import main

        # Rejected while parsing: exit 2 with a usage line, no traceback
        # and no world built.
        with pytest.raises(SystemExit) as raised:
            main([*argv, "--scale", "micro"])
        assert raised.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: ")
        assert message in captured.err

    @pytest.mark.parametrize(
        "command", ["plan", "infer", "funnel", "faults", "serve"]
    )
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--chunk-size", "0"], "argument --chunk-size: must be >= 1, got 0"),
            (["--chunk-size", "-5"], "argument --chunk-size: must be >= 1, got -5"),
            (["--workers", "-1"], "argument --workers: must be >= 0, got -1"),
        ],
        ids=["chunk-size-0", "chunk-size-negative", "workers-negative"],
    )
    def test_bad_execution_knobs_are_usage_errors(
        self, command, flags, message, capsys
    ):
        from repro.cli import main

        with pytest.raises(SystemExit) as raised:
            main([command, "--scale", "micro", *flags])
        assert raised.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: ")
        assert message in captured.err

    @pytest.mark.parametrize("command", ["faults", "serve"])
    def test_online_commands_reject_workers(self, command, capsys):
        from repro.cli import main

        # The online engine folds one day per update and the pool shares
        # out days: a usage error that says so, before a world is built.
        with pytest.raises(SystemExit) as raised:
            main([command, "--scale", "micro", "--workers", "2"])
        assert raised.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: ")
        assert (
            f"{command}: argument --workers: the online engine folds one "
            "day per update" in captured.err
        )

    def test_faults_strict_policy_crashes_on_outage(self):
        from repro.cli import main

        with pytest.raises(ValueError, match="need views"):
            main([
                "faults", "--scale", "micro", "--days", "3",
                "--fault", "outage", "--policy", "strict",
            ])

    def test_convert_roundtrip(self, tmp_path, capsys):
        from repro.cli import main
        from repro.flowpack import FlowpackArchive

        flows = make_flows([{"packets": 3}, {"packets": 5, "spoofed": True}])
        csv_a = tmp_path / "a.csv"
        fpk = tmp_path / "a.fpk"
        csv_b = tmp_path / "b.csv"
        write_flows_csv(flows, csv_a)
        assert main(["convert", str(csv_a), str(fpk)]) == 0
        assert "2 flow records" in capsys.readouterr().out
        assert FlowpackArchive(fpk).read_all().packets.tolist() == [3, 5]
        assert main(["convert", str(fpk), str(csv_b), "--to", "csv"]) == 0
        assert csv_a.read_bytes() == csv_b.read_bytes()

    def test_infer_capture_output_and_cache(self, tmp_path, capsys):
        from repro.cli import main
        from repro.flowpack import FlowpackArchive

        capture = tmp_path / "captured.fpk"
        cache = tmp_path / "cache"
        argv = [
            "infer", "--scale", "micro",
            "--output", str(tmp_path / "p.txt"),
            "--capture-output", str(capture),
            "--format", "flowpack",
            "--capture-cache", str(cache),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "captured flow records" in first
        cold = FlowpackArchive(capture).read_all()

        assert main(argv) == 0  # warm: served from the capture cache
        assert FlowpackArchive(capture).read_all().packets.tolist() == cold.packets.tolist()
        assert (tmp_path / "p.txt").exists()
        assert any(cache.glob("*/*.fpk"))


class TestFlowFormatHelpers:
    def test_write_flows_rejects_unknown_format(self, tmp_path):
        from repro.io import write_flows

        with pytest.raises(ValueError, match="format"):
            write_flows(make_flows([{}]), tmp_path / "x", format="parquet")

    def test_convert_rejects_unknown_target(self, tmp_path):
        from repro.io import convert_flows

        path = tmp_path / "a.csv"
        write_flows_csv(make_flows([{}]), path)
        with pytest.raises(ValueError, match="format"):
            convert_flows(path, tmp_path / "b", to="parquet")

    def test_vectorised_writer_matches_legacy_csv_module(self, tmp_path):
        import csv

        flows = make_flows(
            [
                {"src_ip": 2**32 - 1, "packets": 2**50, "spoofed": True},
                {"dst_asn": -1, "sender_asn": -1},
            ]
        )
        fast = tmp_path / "fast.csv"
        write_flows_csv(flows, fast)
        legacy = tmp_path / "legacy.csv"
        with open(legacy, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow([
                "src_ip", "dst_ip", "proto", "dport", "packets", "bytes",
                "sender_asn", "dst_asn", "spoofed",
            ])
            for row in range(len(flows)):
                writer.writerow([
                    flows.src_ip[row], flows.dst_ip[row], flows.proto[row],
                    flows.dport[row], flows.packets[row], flows.bytes[row],
                    flows.sender_asn[row], flows.dst_asn[row],
                    int(flows.spoofed[row]),
                ])
        assert fast.read_bytes() == legacy.read_bytes()

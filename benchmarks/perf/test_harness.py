"""Tests of the benchmark harness itself (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/perf -q
"""

from __future__ import annotations

import csv
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import client
import reference
import run
from trace import Tracer, self_times

HERE = Path(__file__).resolve().parent


class TestEstimators:
    def test_median_of_pair_ratios_ignores_a_split_pair(self):
        # One pair was hit by a slow spell on the system side only; a
        # mean of ratios would read 3.6, the median reads 2.
        ratios = [2.0, 2.0, 10.0, 2.0, 2.0]
        assert run.median_pair_ratio(ratios, [True] * 5) == 2.0

    def test_the_second_place_penalty_cancels_between_orders(self):
        # Whichever side runs second is 1.5x slower: ref-first pairs
        # read 2 * 1.5, system-first pairs 2 / 1.5.  One median over
        # both orders would flip between 3.0 and 1.33 with the majority.
        ref_first = [True, False] * 3 + [True]
        ratios = [3.0 if flag else 2.0 / 1.5 for flag in ref_first]
        assert run.median_pair_ratio(ratios, ref_first) == pytest.approx(2.0)
        assert run.median_pair_ratio(ratios[:-1], ref_first[:-1]) == pytest.approx(2.0)

    def test_pair_ratio_needs_a_flag_per_pair(self):
        with pytest.raises(ValueError):
            run.median_pair_ratio([1.0], [True, False])
        with pytest.raises(ValueError):
            run.median_pair_ratio([], [])

    def test_campaign_ratio_is_a_ratio_of_sums(self):
        # Three days of unequal cost: the heavy day weighs more than in
        # a mean of per-day ratios (which would be 4.0).
        assert run.campaign_ratio([1.0, 2.0, 9.0], [1.0, 1.0, 1.0]) == 4.0
        assert run.campaign_ratio([1.0, 9.0], [1.0, 3.0]) == 2.5

    def test_spread_is_relative_to_the_median(self):
        summary = run.spread([9.0, 10.0, 10.0, 10.0, 11.0])
        assert summary["median"] == 10.0
        assert summary["range"] == pytest.approx(0.2)
        assert 0.0 <= summary["iqr"] <= summary["range"]


class TestSpans:
    def test_self_time_is_duration_minus_children(self):
        spans = [
            {"name": "unit", "start": 0.0, "end": 10.0, "parent": None, "run": 1},
            {"name": "fold", "start": 1.0, "end": 4.0, "parent": 0, "run": 1},
            {"name": "update", "start": 2.0, "end": 3.0, "parent": 1, "run": 1},
            {"name": "stages", "start": 4.0, "end": 9.0, "parent": 0, "run": 1},
        ]
        assert self_times(spans, spans) == {
            "unit": 2.0, "fold": 2.0, "update": 1.0, "stages": 5.0,
        }
        # The layers of a unit add up to its root span.
        assert sum(self_times(spans, spans).values()) == 10.0

    def test_same_named_spans_add_up_and_runs_stay_apart(self):
        tracer = Tracer()
        for run_id in (1, 2):
            tracer.run = run_id
            with tracer.span("unit"):
                for _ in range(run_id):
                    with tracer.span("open"):
                        time.sleep(0.001)
        first, second = tracer.self_times(1), tracer.self_times(2)
        assert second["open"] > first["open"] > 0.0
        assert set(tracer.median_self_times()) == {"unit", "open"}

    def test_wrap_records_only_inside_a_unit_and_restores(self):
        class Layer:
            @classmethod
            def open(cls, value):
                return value + 1

            def work(self, value):
                return value * 2

        tracer = Tracer()
        tracer.wrap(Layer, "open", "layer.open")
        tracer.wrap(Layer, "work", "layer.work")
        assert Layer.open(1) == 2 and tracer.spans == []
        with tracer.span("unit"):
            assert Layer.open(1) == 2
            assert Layer().work(2) == 4
        assert [span["name"] for span in tracer.spans] == [
            "unit", "layer.open", "layer.work",
        ]
        assert [span["parent"] for span in tracer.spans] == [None, 0, 0]
        tracer.restore()
        assert Layer.open(1) == 2 and len(tracer.spans) == 3

    def test_iterator_spans_cover_the_producer_only(self):
        class Source:
            @staticmethod
            def chunks(count):
                for index in range(count):
                    yield index

        tracer = Tracer()
        tracer.wrap_iterator(Source, "chunks", "source.next")
        with tracer.span("unit"):
            assert list(Source.chunks(3)) == [0, 1, 2]
        names = [span["name"] for span in tracer.spans]
        assert names == ["unit"] + ["source.next"] * 4  # three items + the end
        tracer.restore()


class TestFraming:
    HEAD = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"

    def test_waits_for_the_whole_body(self):
        response = self.HEAD + b"Content-Length: 5\r\n\r\nhello"
        for cut in range(len(response)):
            assert client.frame(response[:cut]) is None
        head, body, rest = client.frame(response)
        assert body == b"hello" and rest == b""
        assert client.status_of(head) == 200

    def test_leaves_the_next_response_in_the_buffer(self):
        response = self.HEAD + b"Content-Length: 2\r\n\r\nokHTTP/1.1 304"
        _, body, rest = client.frame(response)
        assert body == b"ok" and rest == b"HTTP/1.1 304"

    def test_a_304_has_no_body(self):
        response = b'HTTP/1.1 304 Not Modified\r\nContent-Length: 0\r\nETag: "v3"\r\n\r\n'
        head, body, rest = client.frame(response)
        assert client.status_of(head) == 304 and body == b"" and rest == b""

    def test_header_name_case_does_not_matter(self):
        response = b"HTTP/1.1 200 OK\r\ncontent-length: 3\r\n\r\nabc"
        assert client.frame(response)[1] == b"abc"

    def test_request_bytes(self):
        raw = client.build_get("/v1/point?block=7", {"If-None-Match": '"v2"'})
        assert raw == (
            b"GET /v1/point?block=7 HTTP/1.1\r\nHost: bench\r\n"
            b'If-None-Match: "v2"\r\n\r\n'
        )


class TestReferences:
    """The references are the benchmark's unit of time: pinned, so they
    cannot drift silently."""

    PINNED = "010e48ec62d4a1d6"

    def test_ref_fold_digest_for_seed_1(self):
        dark = reference.ref_fold(reference.synthetic_columns(1), 8)
        assert len(dark) == 657
        assert reference.digest(dark) == self.PINNED

    def test_ref_csv_fold_reads_the_same_answer_from_csv(self, tmp_path):
        columns = reference.synthetic_columns(1)
        names = ["src_ip", "dst_ip", "proto", "dport", "packets", "bytes"]
        halves = []
        for half, rows in enumerate((range(0, 10_000), range(10_000, 20_000))):
            path = tmp_path / f"half{half}.csv"
            with open(path, "w", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(names)
                for row in rows:
                    writer.writerow(
                        [0 if name == "dport" else columns[name][row] for name in names]
                    )
            halves.append(str(path))
        assert reference.digest(reference.ref_csv_fold(halves)) == self.PINNED

    def test_references_import_nothing_from_the_system(self):
        for name in ("reference.py", "ref_server.py"):
            assert "repro" not in (HERE / name).read_text().replace(
                "``repro``", ""
            )

    def test_nominal_seconds_cover_every_workload(self):
        declared = {entry["name"] for entry in run.SPEC["workloads"]}
        assert set(reference.REF_NOMINAL_S) == declared == set(run.WORKLOADS)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_emits_every_declared_metric(trace, section):
    started = time.perf_counter()
    child = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", "ipv6_sites",
            "--seed", "1", "--smoke", "--trace", str(trace),
        ],
        capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    assert time.perf_counter() - started < 20.0
    result = json.loads(child.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {metric["name"]: metric["unit"] for metric in run.SPEC[section]}
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == declared
    if section == "end_to_end":
        assert all(metric["value"] > 0 for metric in result["metrics"].values())

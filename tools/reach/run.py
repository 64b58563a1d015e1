"""Run every production entry point once with the reach hook installed.

    python3 tools/reach/run.py OUT_DIR

Each command runs as its own interpreter with ``tools/reach/site`` and
``src`` on ``PYTHONPATH`` and ``REACH_DIR=OUT_DIR``, so every process it
starts (forked and spawned workers, the fleet, subprocesses) records the
``src/repro`` functions, lines and parameter value classes it runs into
``OUT_DIR/<pid>.txt``; before the first command it writes the sha256 of
every file under ``src/repro`` to ``OUT_DIR/sources.sha256``, which
``report.py`` checks.  The entry points are: the seven examples; every
CLI subcommand and flag path (``serve`` in-process, as a two-worker
fleet on the saved snapshot and as a two-worker fleet folding a world,
with ``query`` on all seven endpoints against the first two, ``point``
by block, /24 and bare address, ``range`` by block ids and by prefix;
``convert`` both ways; a cold and a warm ``--capture-cache``;
``--trace``; ``--seed``, ``--workers 0``, a single ``--vantage`` and a
degraded day under ``--policy skip``); the four perf workloads with
``--smoke`` and with ``--smoke --trace 1``; and the paper gate plus the
scenario and fault benches.  The native kernel cache starts cold, so
the library is compiled on every machine alike.  ``report.py OUT_DIR``
turns the records into ``docs/unreached.txt``.  Tracing every line
roughly doubles each command's time: the whole run takes 6.5 to 7.5 min on
2 vCPUs (Python 3.11); files land in a temporary directory, apart from
the benches' own outputs (``benchmarks/output/``, rewritten byte for
byte) and the perf harness's git-ignored work directories.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

from report import SRC, write_manifest

REPO = Path(__file__).resolve().parents[2]
SITE = Path(__file__).resolve().parent / "site"
BENCHES = [
    "benchmarks/bench_table*.py",
    "benchmarks/bench_fig*.py",
    "benchmarks/bench_ablation*.py",
    "benchmarks/bench_stability.py",
    "benchmarks/bench_threat_detection.py",
    "benchmarks/bench_scenarios.py",
    "benchmarks/bench_robustness_faults.py",
]
PERF_WORKLOADS = ("archive_batch", "csv_stream", "online_daily", "ipv6_sites")
MICRO = ("--scale", "micro")


def cli_runs(work: Path) -> list[list[str]]:
    """``python -m repro`` argument lists, run in order (later runs read
    files earlier ones wrote)."""
    cache = str(work / "capture-cache")
    return [
        ["demo", *MICRO],
        ["demo", *MICRO, "--days", "3", "--workers", "2", "--trace",
         str(work / "demo.jsonl")],
        ["demo", *MICRO, "--capture-cache", cache],  # cold
        ["demo", *MICRO, "--capture-cache", cache],  # warm
        ["infer", *MICRO, "--output", str(work / "v4.txt"), "--aggregate",
         "--capture-output", str(work / "captured.csv")],
        ["infer", *MICRO, "--vantage", "CE1", "--days", "2", "--no-tolerance",
         "--chunk-size", "auto", "--output", str(work / "ce1.txt"),
         "--capture-output", str(work / "captured.fpk"), "--format", "flowpack"],
        ["infer", *MICRO, "--explain", "--output", str(work / "never.txt")],
        ["infer", "--family", "ipv6", *MICRO, "--kernel", "auto",
         "--output", str(work / "v6-native.txt")],
        ["infer", "--family", "ipv6", *MICRO, "--kernel", "numpy",
         "--output", str(work / "v6-numpy.txt")],
        ["infer", "--family", "ipv6", *MICRO, "--seed", "3", "--days", "2",
         "--chunk-size", "500", "--workers", "2",
         "--output", str(work / "v6-chunked.txt")],
        ["plan", *MICRO, "--workers", "2", "--chunk-size", "auto"],
        ["plan", *MICRO, "--kernel", "auto"],
        ["plan", *MICRO, "--workers", "0"],
        ["plan", "--family", "ipv6", *MICRO],
        ["plan", "--family", "ipv6", "--scale", "small"],
        ["funnel", *MICRO, "--chunk-size", "500"],
        ["telescopes", *MICRO],
        ["ports", *MICRO, "--count", "5"],
        ["report", *MICRO, "--output", str(work / "report.md")],
        ["faults", *MICRO, "--days", "5", "--policy", "carry"],
        ["faults", *MICRO, "--days", "5", "--policy", "strict",
         "--fault", "truncate", "--fault-day", "1", "--window", "2"],
        ["faults", *MICRO, "--days", "4", "--policy", "skip", "--fault", "none",
         "--trace", str(work / "faults.jsonl")],
        ["faults", *MICRO, "--days", "4", "--policy", "skip", "--fault",
         "truncate", "--fault-day", "1", "--vantage", "CE1", "--seed", "3"],
        ["scenarios", "list", *MICRO],
        ["scenarios", "run", *MICRO, "--workers", "2", "--service-path",
         "--trace", str(work / "scenarios.jsonl")],
        ["convert", str(work / "captured.csv"), str(work / "converted.fpk")],
        ["convert", str(work / "captured.fpk"), str(work / "converted.csv"),
         "--to", "csv", "--chunk-rows", "1000"],
    ]


def environment(out: Path, work: Path) -> dict[str, str]:
    """The hook and ``src`` on the path, and a cold native-kernel cache,
    so the first fold compiles the library on every machine alike."""
    path = os.pathsep.join([str(SITE), str(REPO / "src")])
    return {**os.environ, "PYTHONPATH": path, "REACH_DIR": str(out),
            "REPRO_KERNEL_CACHE": str(work / "kernels")}


def run(command: list[str], env: dict[str, str], cwd: Path) -> None:
    started = time.monotonic()
    done = subprocess.run(command, env=env, cwd=cwd, capture_output=True,
                          text=True)
    print(f"{time.monotonic() - started:6.1f}s  {' '.join(command[1:])}",
          file=sys.stderr, flush=True)
    if done.returncode != 0:
        raise SystemExit(
            f"failed ({done.returncode}): {command}\n{done.stdout}\n{done.stderr}"
        )


def fetch(url: str):
    with urllib.request.urlopen(url, timeout=10) as reply:
        return json.loads(reply.read())


def queries(url: str, env: dict[str, str], cwd: Path) -> None:
    """``query`` on all seven endpoints (``point`` by block id, by /24
    and by a bare address inside it; ``range`` by block ids and by the
    /16 covering it), plus one refused request."""
    head = fetch(url + "/v1/range?start=0&end=4294967295&limit=64")["rows"]
    dark = next(row for row in head if row["dark"])
    block = dark["block"]
    octets = f"{block >> 16}.{(block >> 8) & 0xFF}"
    address = f"{octets}.{block & 0xFF}.1"
    asn = next(row["asn"] for row in head if row["asn"] is not None)
    country = next(row["country"] for row in head if row["country"])
    repro = [sys.executable, "-m", "repro", "query"]
    for argv in (
        ["health"],
        ["snapshot"],
        ["point", "--block", str(dark["block"])],
        ["point", "--block", "0"],
        ["point", "--prefix", dark["prefix"]],
        ["point", "--prefix", address],
        ["range", "--start", "0", "--end", "16777215", "--limit", "5"],
        ["range", "--prefix", f"{octets}.0.0/16", "--limit", "5"],
        ["as", "--asn", str(asn), "--limit", "3"],
        ["geo", "--country", country],
        ["diff", "--since", "1"],
    ):
        run(repro + argv + ["--url", url], env, cwd)
    done = subprocess.run(repro + ["point", "--url", url], env=env, cwd=cwd,
                          capture_output=True)
    assert done.returncode == 1, "a point query with no target must fail"


def serving(flags: list[str], env: dict[str, str], cwd: Path,
            ask: bool = True) -> None:
    """``serve`` on an ephemeral port until it is healthy and (with
    ``ask``) the queries are done, then the operator's Ctrl-C."""
    command = [sys.executable, "-m", "repro", "serve", "--port", "0",
               "--exit-after", "600", *flags]
    started = time.monotonic()
    process = subprocess.Popen(command, env=env, cwd=cwd, text=True,
                               stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT,
                               start_new_session=True)
    try:
        url = None
        for line in process.stdout:
            found = re.search(r"meta-telescope (?:service|fleet).* on "
                              r"(http://\S+)", line)
            if found:
                url = found.group(1)
                break
        if url is None:
            raise SystemExit(f"serve exited early: {command}")
        deadline = time.monotonic() + 120
        while True:
            try:
                if fetch(url + "/healthz")["serving"]:
                    break
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise SystemExit(f"never healthy: {url}")
            time.sleep(0.05)
        if ask:
            queries(url, env, cwd)
        process.send_signal(signal.SIGINT)
        if process.wait(timeout=120) != 0:
            raise SystemExit(f"serve did not stop cleanly: {command}")
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait(timeout=30)
        process.stdout.close()
    print(f"{time.monotonic() - started:6.1f}s  serve {' '.join(flags)}",
          file=sys.stderr, flush=True)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        raise SystemExit(__doc__)
    out = Path(argv[0]).resolve()
    out.mkdir(parents=True, exist_ok=True)
    write_manifest(out, SRC)
    python = sys.executable
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        work = Path(scratch)
        env = environment(out, work)
        for example in sorted((REPO / "examples").glob("*.py")):
            extra = [str(work / "products")] if example.stem == "export_products" else []
            run([python, str(example), *extra], env, work)
        for args in cli_runs(work):
            run([python, "-m", "repro", *args], env, work)
        serving([*MICRO, "--days", "3", "--warm-days", "1",
                 "--save-snapshot", str(work / "snapshot.fpk"),
                 "--delta-archive", str(work / "deltas")], env, work)
        serving(["--snapshot", str(work / "snapshot.fpk"), "--processes", "2",
                 "--fleet-root", str(work / "fleet")], env, work)
        serving([*MICRO, "--days", "2", "--warm-days", "1", "--processes", "2",
                 "--fleet-root", str(work / "fleet-fold")], env, work, ask=False)
        for workload in PERF_WORKLOADS:
            for trace in ([], ["--trace", "1"]):
                run([python, "benchmarks/perf/run.py", "--workload", workload,
                     "--seed", "1", "--smoke", *trace], env, REPO)
        benches = sorted(
            str(path.relative_to(REPO))
            for pattern in BENCHES for path in REPO.glob(pattern)
        )
        run([python, "-m", "pytest", *benches, "--benchmark-disable", "-q",
             "-p", "no:cacheprovider"], env, REPO)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Fold cost against rows per batch: the sweep behind ``chunk_size="auto"``.

Folds the stored days of the ``online_daily`` and ``archive_batch``
perf workloads (flowpack archives, as the benchmark reads them), and
one paper-scale day, through ``PrefixAccumulator.update_day`` at a
range of batch sizes and whole, and prints one markdown row per batch
size: ns per row (best of ``--repeat``, fold plus the end-of-day
compaction a split day pays) and the fold's traced peak memory.

    PYTHONPATH=src python3 tools/batch_sweep.py [--seed 5] [--repeat 7]

Writes only the workloads' archives, under a temporary directory.
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks" / "perf"))

from repro.core.accum import PrefixAccumulator, adaptive_chunk_rows  # noqa: E402
from repro.core.kernels import get_kernel  # noqa: E402
from repro.world.builder import build_world  # noqa: E402
from repro.world.config import paper_config  # noqa: E402
from repro.world.observe import Observatory  # noqa: E402
from workloads import ArchiveBatch, OnlineDaily  # noqa: E402

BATCH_ROWS = tuple(1 << shift for shift in range(12, 21)) + (None,)


def fold_days(days, batch_rows, kernel) -> None:
    accumulator = PrefixAccumulator(kernel=kernel)
    for views in days:
        accumulator.update_day(views[0].day, views, batch_rows)


def measure(days, kernel, repeat: int) -> list[tuple]:
    rows = sum(view.num_rows for views in days for view in views)
    largest = max(sum(view.num_rows for view in views) for views in days)
    results = []
    for batch_rows in BATCH_ROWS:
        if batch_rows is not None and batch_rows >= largest:
            continue
        fold_days(days, batch_rows, kernel)  # warm the page cache
        best = float("inf")
        for _ in range(repeat):
            started = time.perf_counter()
            fold_days(days, batch_rows, kernel)
            best = min(best, time.perf_counter() - started)
        tracemalloc.start()
        fold_days(days, batch_rows, kernel)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        results.append((batch_rows, best / rows * 1e9, peak / 2**20))
    return results


def stored_days(workload) -> list[list]:
    workload.workdir.mkdir(parents=True)
    workload.build()
    workload.write_inputs()
    workload.attach()
    return [workload.stored_views(step) for step in range(workload.steps)]


def paper_day(seed: int) -> list[list]:
    observation = Observatory(build_world(paper_config(seed))).day(0)
    return [list(observation.ixp_views.values())]


def environment() -> str:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(
                line.split(":", 1)[1].strip()
                for line in handle
                if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    kernel = get_kernel("auto").describe()
    return (
        f"{cpu}, {len(os.sched_getaffinity(0))} CPUs, "
        f"Python {platform.python_version()}, numpy {np.__version__}, "
        f"kernel {kernel['name']} ({kernel['provider']})"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--repeat", type=int, default=7)
    args = parser.parse_args()
    kernel = get_kernel("auto")
    print(f"environment: {environment()}; seed {args.seed}")
    print()
    print("| input | rows per day | rows per batch | ns/row | peak MiB |")
    print("|---|---|---|---|---|")
    with tempfile.TemporaryDirectory() as scratch:
        inputs = (
            ("online_daily, 3 days", stored_days(
                OnlineDaily(args.seed, Path(scratch) / "online")
            )),
            ("archive_batch, 1 day", stored_days(
                ArchiveBatch(args.seed, Path(scratch) / "archive")
            )),
            ("paper scale, 1 day", paper_day(args.seed)),
        )
        for name, days in inputs:
            day_rows = [sum(view.num_rows for view in views) for views in days]
            auto = {adaptive_chunk_rows(count) for count in day_rows}
            for batch_rows, ns_per_row, peak in measure(
                days, kernel, args.repeat
            ):
                label = "whole day" if batch_rows is None else f"{batch_rows:,}"
                if batch_rows in auto:
                    label += " (auto)"
                print(
                    f"| {name} | {', '.join(f'{n:,}' for n in day_rows)} "
                    f"| {label} | {ns_per_row:.1f} | {peak:.1f} |"
                )


if __name__ == "__main__":
    main()

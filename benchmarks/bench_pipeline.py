"""Batch vs chunked vs parallel pipeline benchmark (machine-readable).

Times the full seven-step inference per world size — with whole-view
aggregation (``chunk_size=None``), streaming through the
:class:`~repro.core.accum.PrefixAccumulator` in bounded chunks, and
fanning the aggregation across a process pool at each worker count in
``--workers-list`` — and records wall time, tracemalloc peak memory of
the aggregation phase, per-worker busy time, IPC overhead, merge time,
and whether the classifications are identical (they must be: chunked
and parallel paths are bit-identical by construction).  The record
carries the ``cpus`` the host actually granted, so a speedup read off
the artifact is always interpreted against real parallelism headroom.

Two storage sections ride along per scale: ``archive_vs_csv`` times
reading the full dataset from CSV vs flowpack archives (and proves the
archive-fed fold classifies bit-identically to the in-memory batch at
every chunk size and worker count — any dark-block divergence aborts
the run), and ``capture_cache`` times a cold observation round
(generate + store) against a warm one served entirely from the
content-addressed cache.

A ``kernel_scaling`` section times the aggregation under the
``kernel=numpy`` reference against ``kernel=native`` (the bundled C
library, or the silent numpy fallback on a host without a compiler)
across chunk sizes, records per-row costs, and
aborts on any classification divergence between backends.

The ``giant`` scale (≥50 M IXP rows per day) is special-cased: the day
is simulated once into a capture cache and every fold streams from the
flowpack archives — it only runs when requested explicitly
(``--scales giant``) and records generation cost, archive size, and
the per-kernel fold throughput at a row count where kernel choice
dominates wall time.

Results land in ``benchmarks/output/BENCH_pipeline.json`` (override
with ``--output``).  Run standalone::

    PYTHONPATH=src python benchmarks/bench_pipeline.py --scales micro

CI runs exactly that as a smoke check; the full three-scale run plus
``giant`` is the performance artifact.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import tempfile
import time
import tracemalloc

import numpy as np

from repro.core.accum import PrefixAccumulator
from repro.core.kernels import native_provider
from repro.core.metatelescope import MetaTelescope
from repro.core.parallel import default_workers, parallel_accumulate_views
from repro.core.pipeline import (
    PipelineConfig,
    accumulate_views,
    run_pipeline_accumulated,
)
from repro.io import (
    iter_flows_csv,
    read_flows_archive,
    read_flows_csv,
    write_flows_csv,
)
from repro.vantage.archive import ArchiveDayView, export_view
from repro.world.capture_cache import CaptureCache
from repro.world.observe import Observatory
from repro.world.scenarios import (
    giant_world,
    micro_world,
    paper_world,
    small_world,
)

_SCALES = {"micro": micro_world, "small": small_world, "paper": paper_world}
_OUTPUT = pathlib.Path(__file__).resolve().parent / "output" / "BENCH_pipeline.json"


def _timed_inference(views, routing, config, special, chunk_size):
    """(seconds, aggregation peak MiB, PipelineResult) for one mode."""
    tracemalloc.start()
    started = time.perf_counter()
    accumulator = accumulate_views(
        views,
        ignore_sources_from_asns=config.ignore_sources_from_asns,
        chunk_size=chunk_size,
    )
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    result = run_pipeline_accumulated(accumulator, routing, config, special)
    return time.perf_counter() - started, peak / 2**20, result


def _ingest_peaks(view, chunk_rows: int) -> dict:
    """Peak memory ingesting the largest view from disk, both ways.

    The batch path must materialise the whole day before aggregating;
    the streamed path holds one parsed chunk plus the accumulator —
    this is where O(day) vs O(accumulator) memory shows up.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "day.csv"
        write_flows_csv(view.flows, path)

        tracemalloc.start()
        whole = read_flows_csv(path)
        PrefixAccumulator().update(
            whole,
            vantage=view.vantage,
            day=view.day,
            sampling_factor=view.sampling_factor,
        )
        _, batch_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        del whole

        tracemalloc.start()
        streamed = PrefixAccumulator()
        for chunk in iter_flows_csv(path, chunk_rows=chunk_rows):
            streamed.update(
                chunk,
                vantage=view.vantage,
                day=view.day,
                sampling_factor=view.sampling_factor,
            )
        _, streamed_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    return {
        "rows": int(len(view.flows)),
        "batch_peak_mib": batch_peak / 2**20,
        "streamed_peak_mib": streamed_peak / 2**20,
    }


def _worker_scaling(
    views, routing, config, special, workers_list, baseline
) -> list[dict]:
    """Aggregation fan-out at each worker count, vs the serial result.

    The views are exported to flowpack archives first, so every worker
    count >1 exercises the production fan-out path: (path, row-range)
    descriptors over the **persistent** worker pool (``mode="pool"``),
    reused across entries exactly as it is across chunks and days —
    per-call fork cost is paid once, not per row in the table.

    Speedups are measured against this run's own ``workers=1`` wall
    time (first entry of ``workers_list``), not the batch timing above,
    so pool and IPC overhead are attributed honestly.  ``cpus`` is
    recorded per entry: on a single-CPU host every speedup >1 is noise
    and the honest reading of the section is pure-overhead accounting.
    """
    records = []
    serial_seconds = None
    cpus = default_workers()
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        for index, view in enumerate(views):
            export_view(view, root / f"{index}.fpk")
        archived = [
            ArchiveDayView.open(root / f"{index}.fpk")
            for index in range(len(views))
        ]
        for workers in workers_list:
            started = time.perf_counter()
            accumulator, stats = parallel_accumulate_views(
                archived,
                ignore_sources_from_asns=config.ignore_sources_from_asns,
                workers=workers,
            )
            agg_seconds = time.perf_counter() - started
            result = run_pipeline_accumulated(
                accumulator, routing, config, special
            )
            total_seconds = time.perf_counter() - started
            if serial_seconds is None:
                serial_seconds = agg_seconds
            records.append(
                {
                    "workers": workers,
                    "cpus": cpus,
                    "mode": stats.mode,
                    "agg_seconds": agg_seconds,
                    "total_seconds": total_seconds,
                    "agg_speedup": serial_seconds / agg_seconds,
                    "worker_busy_s": [
                        report.fold_seconds for report in stats.reports
                    ],
                    "balance": stats.balance(),
                    "ipc_overhead_s": stats.ipc_seconds(),
                    "merge_s": stats.merge_seconds,
                    "num_dark": int(result.num_dark()),
                    "identical": _identical(baseline, result),
                }
            )
    return records


def _kernel_scaling(
    views, routing, config, special, chunk_size, baseline, repeats: int = 3
) -> dict:
    """``kernel=numpy`` vs ``kernel=native`` aggregation, per chunk size.

    Times the serial fold (aggregation only, best of ``repeats``) under
    each backend at whole-view, auto-chunked and fixed-chunk streaming,
    then classifies from each accumulator — classification must be
    bit-identical across backends (the kernel identity contract; any
    divergence aborts the artifact).  ``provider`` records what the
    native backend actually resolved to on this host: ``cc``, or
    ``None`` when it silently degraded to the numpy reference —
    in which case the speedups hover at 1.0 by construction and the
    section documents the fallback, not a win.
    """
    rows = int(sum(len(view.flows) for view in views))
    entries = []
    baseline_seconds: dict[object, float] = {}
    for kernel in ("numpy", "native"):
        for size in (None, "auto", chunk_size):
            best = float("inf")
            accumulator = None
            for _ in range(repeats):
                started = time.perf_counter()
                accumulator = accumulate_views(
                    views,
                    ignore_sources_from_asns=config.ignore_sources_from_asns,
                    chunk_size=size,
                    kernel=kernel,
                )
                best = min(best, time.perf_counter() - started)
            result = run_pipeline_accumulated(
                accumulator, routing, config, special
            )
            if kernel == "numpy":
                baseline_seconds[size] = best
            entries.append(
                {
                    "kernel": kernel,
                    "chunk_size": size,
                    "agg_seconds": best,
                    "ns_per_row": best / rows * 1e9 if rows else None,
                    "speedup_vs_numpy": baseline_seconds[size] / best,
                    "num_dark": int(result.num_dark()),
                    "identical": _identical(baseline, result),
                }
            )
    return {
        "provider": native_provider(),
        "rows": rows,
        "repeats": repeats,
        "entries": entries,
    }


def _archive_vs_csv(
    views, routing, config, special, chunk_size, workers_list, baseline
) -> dict:
    """Flowpack archives vs CSV: read throughput and classification identity.

    Every view is written both ways; the read timing covers the whole
    dataset (parse for CSV, memmap + checksum for flowpack).  The
    archive-backed views then feed the accumulator chunked and in
    parallel — classification must be bit-identical to the in-memory
    batch baseline at every chunk size and worker count.
    """
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        for index, view in enumerate(views):
            write_flows_csv(view.flows, root / f"{index}.csv")
            export_view(view, root / f"{index}.fpk")
        csv_bytes = sum(
            (root / f"{i}.csv").stat().st_size for i in range(len(views))
        )
        fpk_bytes = sum(
            (root / f"{i}.fpk").stat().st_size for i in range(len(views))
        )

        started = time.perf_counter()
        for index in range(len(views)):
            read_flows_csv(root / f"{index}.csv")
        csv_read_s = time.perf_counter() - started

        started = time.perf_counter()
        for index in range(len(views)):
            read_flows_archive(root / f"{index}.fpk")
        flowpack_read_s = time.perf_counter() - started

        archived = [
            ArchiveDayView.open(root / f"{index}.fpk")
            for index in range(len(views))
        ]
        identity = []
        for size in (chunk_size, None):
            accumulator = accumulate_views(
                archived,
                ignore_sources_from_asns=config.ignore_sources_from_asns,
                chunk_size=size,
            )
            result = run_pipeline_accumulated(
                accumulator, routing, config, special
            )
            identity.append(
                {
                    "chunk_size": size,
                    "workers": 1,
                    "num_dark": int(result.num_dark()),
                    "identical": _identical(baseline, result),
                }
            )
        for workers in workers_list:
            if workers <= 1:
                continue
            accumulator, _ = parallel_accumulate_views(
                archived,
                ignore_sources_from_asns=config.ignore_sources_from_asns,
                workers=workers,
            )
            result = run_pipeline_accumulated(
                accumulator, routing, config, special
            )
            identity.append(
                {
                    "chunk_size": None,
                    "workers": workers,
                    "num_dark": int(result.num_dark()),
                    "identical": _identical(baseline, result),
                }
            )
    return {
        "csv_bytes": int(csv_bytes),
        "flowpack_bytes": int(fpk_bytes),
        "csv_read_s": csv_read_s,
        "flowpack_read_s": flowpack_read_s,
        "read_speedup": csv_read_s / flowpack_read_s,
        "identity": identity,
    }


def _engine_overhead(
    views, routing, config, special, repeats: int, baseline
) -> dict:
    """Engine path (plan + execute + trace spine) vs the direct fold.

    Both paths do the same serial whole-view fold and classification;
    the engine path additionally builds an :class:`ExecutionPlan`,
    threads a :class:`RunContext`, and emits plan/view/stage events to
    the in-memory sink.  The overhead must stay small (the acceptance
    bar is 5%) — best-of-``repeats`` wall times keep scheduler noise
    out of the ratio.
    """
    from repro.core.engine import ExecutionPlanner, RunContext, execute_plan

    direct_s = engine_s = float("inf")
    engine_result = None
    for _ in range(repeats):
        started = time.perf_counter()
        accumulator = accumulate_views(
            views, ignore_sources_from_asns=config.ignore_sources_from_asns
        )
        run_pipeline_accumulated(accumulator, routing, config, special)
        direct_s = min(direct_s, time.perf_counter() - started)

        started = time.perf_counter()
        plan = ExecutionPlanner().plan(views)
        context = RunContext(knobs=plan.knobs, plan=plan)
        accumulator = execute_plan(
            plan, views, context,
            ignore_sources_from_asns=config.ignore_sources_from_asns,
        )
        engine_result = run_pipeline_accumulated(
            accumulator, routing, config, special, context=context
        )
        engine_s = min(engine_s, time.perf_counter() - started)
    return {
        "repeats": repeats,
        "direct_seconds": direct_s,
        "engine_seconds": engine_s,
        "overhead_ratio": engine_s / direct_s,
        "identical": _identical(baseline, engine_result),
    }


def _capture_cache_rounds(world, days: int) -> dict:
    """Cold (generate + store) vs warm (archives only) observation."""
    with tempfile.TemporaryDirectory() as tmp:
        cache = CaptureCache(tmp)
        started = time.perf_counter()
        Observatory(world, capture_cache=cache).days(days)
        cold_s = time.perf_counter() - started

        started = time.perf_counter()
        Observatory(world, capture_cache=cache).days(days)
        warm_s = time.perf_counter() - started
        stats = cache.stats()
    return {
        "days": days,
        "cold_seconds": cold_s,
        "warm_seconds": warm_s,
        "speedup": cold_s / warm_s,
        "hits": stats.hits,
        "misses": stats.misses,
        "entries": stats.entries,
        "bytes": stats.bytes,
    }


def _ipv6_section(
    scale: str, seed: int, days: int, chunk_size: int, workers_list: list[int]
) -> dict:
    """End-to-end IPv6 over the same engine: coverage + path identity.

    Runs :func:`~repro.core.ipv6_telescope.infer_ipv6` over the scale's
    v6 world batch, chunked and parallel — the served /48 set and the
    snapshot must be bit-identical across paths, exactly like the v4
    sections above — and records the candidate-filter drop reasons plus
    the ground-truth recall/precision of the served set.
    """
    from repro.core.ipv6_telescope import infer_ipv6
    from repro.world.ipv6 import (
        ipv6_views,
        micro_ipv6_world,
        paper_ipv6_world,
        small_ipv6_world,
    )

    worlds = {
        "micro": micro_ipv6_world,
        "small": small_ipv6_world,
        "paper": paper_ipv6_world,
    }
    world = worlds[scale](seed)
    views = ipv6_views(world, num_days=days)
    rows = int(sum(len(view.flows) for view in views))

    started = time.perf_counter()
    batch = infer_ipv6(world, views)
    batch_s = time.perf_counter() - started

    workers = next((w for w in workers_list if w > 1), 2)
    paths = {
        "chunked": infer_ipv6(world, views, chunk_size=chunk_size),
        "parallel": infer_ipv6(world, views, workers=workers),
    }
    identity = {
        name: bool(
            np.array_equal(batch.served_sites, report.served_sites)
            and batch.snapshot.identical_to(report.snapshot)
        )
        for name, report in paths.items()
    }
    candidates = batch.candidates
    coverage = batch.coverage
    return {
        "days": len(views),
        "rows": rows,
        "seconds": batch_s,
        "funnel": dict(batch.result.pipeline.funnel.as_rows("/48 sites")),
        "num_dark": int(len(batch.result.pipeline.dark_blocks)),
        "candidates": {
            "observed": candidates.observed,
            "kept": len(candidates.candidate_sites),
            "dropped_unannounced": candidates.dropped_unannounced,
            "dropped_hitlist": candidates.dropped_hitlist,
            "dropped_sources": candidates.dropped_sources,
        },
        "served": coverage.served,
        "truth_dark": coverage.truth_dark,
        "recall": coverage.recall(),
        "precision": coverage.precision(),
        "parallel_workers": workers,
        "identity": identity,
    }


def _identical(a, b) -> bool:
    return (
        np.array_equal(a.dark_blocks, b.dark_blocks)
        and np.array_equal(a.unclean_blocks, b.unclean_blocks)
        and np.array_equal(a.gray_blocks, b.gray_blocks)
        and a.funnel == b.funnel
    )


def bench_world(
    scale: str,
    seed: int,
    days: int,
    chunk_size: int,
    workers_list: list[int],
) -> dict:
    """Benchmark one world size; returns its JSON record."""
    world = _SCALES[scale](seed)
    observatory = Observatory(world)
    days = min(days, world.config.num_days)
    views = observatory.all_ixp_views(num_days=days)
    telescope = MetaTelescope(
        collector=world.collector,
        config=PipelineConfig(
            avg_size_threshold=world.config.avg_size_threshold,
            volume_threshold_pkts_day=world.config.volume_threshold_pkts_day,
        ),
    )
    routing = telescope.routing_for_days([view.day for view in views])

    batch_s, batch_mib, batch = _timed_inference(
        views, routing, telescope.config, telescope.special, None
    )
    chunked_s, chunked_mib, chunked = _timed_inference(
        views, routing, telescope.config, telescope.special, chunk_size
    )
    largest = max(views, key=lambda view: len(view.flows))
    ingest = _ingest_peaks(largest, chunk_size)
    scaling = _worker_scaling(
        views, routing, telescope.config, telescope.special,
        workers_list, batch,
    )
    kernels = _kernel_scaling(
        views, routing, telescope.config, telescope.special,
        chunk_size, batch,
    )
    archive = _archive_vs_csv(
        views, routing, telescope.config, telescope.special,
        chunk_size, workers_list, batch,
    )
    overhead = _engine_overhead(
        views, routing, telescope.config, telescope.special, 7, batch
    )
    cache = _capture_cache_rounds(world, days)
    ipv6 = _ipv6_section(scale, seed, days, chunk_size, workers_list)
    return {
        "scale": scale,
        "days": days,
        "views": len(views),
        "rows": int(sum(len(view.flows) for view in views)),
        "largest_view_rows": int(max(len(view.flows) for view in views)),
        "num_dark": int(batch.num_dark()),
        "identical": _identical(batch, chunked),
        "batch": {"seconds": batch_s, "agg_peak_mib": batch_mib},
        "chunked": {
            "seconds": chunked_s,
            "agg_peak_mib": chunked_mib,
            "chunk_size": chunk_size,
        },
        "ingest_largest_view": ingest,
        "worker_scaling": scaling,
        "kernel_scaling": kernels,
        "archive_vs_csv": archive,
        "engine_overhead": overhead,
        "capture_cache": cache,
        "ipv6": ipv6,
    }


#: The giant scale's contract: at least this many IXP rows per day.
GIANT_ROWS_PER_DAY_FLOOR = 50_000_000


def bench_giant(
    seed: int, chunk_size: int, cache_dir: pathlib.Path | None
) -> dict:
    """The ≥50 M rows/day stress scale, archive-backed end to end.

    One giant day is simulated straight into a :class:`CaptureCache`
    (into ``--giant-cache`` when given, so re-runs skip the minutes of
    generation; a temporary directory otherwise), the in-memory views
    are dropped, and a second observatory recalls the day purely as
    flowpack archives.  Each kernel backend then streams the archived
    rows through the accumulator in bounded chunks — at this row count
    the fold dominates wall time, so this is the honest single-core
    kernel comparison — and classifies; backends must agree bit for
    bit.  Falling short of the 50 M rows/day floor aborts the artifact.
    """
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(cache_dir) if cache_dir is not None else pathlib.Path(tmp)
        root.mkdir(parents=True, exist_ok=True)
        cache = CaptureCache(root)

        started = time.perf_counter()
        world = giant_world(seed)
        build_seconds = time.perf_counter() - started

        started = time.perf_counter()
        Observatory(world, capture_cache=cache).day(0)
        generate_seconds = time.perf_counter() - started
        stats = cache.stats()
        generated = stats.misses > 0

        warm = Observatory(world, capture_cache=cache)
        views = warm.all_ixp_views(num_days=1)
        rows = int(sum(_view_rows(view) for view in views))
        if rows < GIANT_ROWS_PER_DAY_FLOOR:
            raise SystemExit(
                f"giant scale produced {rows:,} rows/day — below the "
                f"{GIANT_ROWS_PER_DAY_FLOOR:,} floor"
            )

        telescope = MetaTelescope(
            collector=world.collector,
            config=PipelineConfig(
                avg_size_threshold=world.config.avg_size_threshold,
                volume_threshold_pkts_day=world.config.volume_threshold_pkts_day,
            ),
        )
        routing = telescope.routing_for_days([0])

        entries = []
        results = {}
        numpy_seconds: dict[object, float] = {}
        for kernel in ("numpy", "native"):
            for size in ("auto", chunk_size):
                started = time.perf_counter()
                accumulator = accumulate_views(
                    views,
                    ignore_sources_from_asns=(
                        telescope.config.ignore_sources_from_asns
                    ),
                    chunk_size=size,
                    kernel=kernel,
                )
                agg_seconds = time.perf_counter() - started
                result = run_pipeline_accumulated(
                    accumulator, routing, telescope.config, telescope.special
                )
                results[kernel] = result
                if kernel == "numpy":
                    numpy_seconds[size] = agg_seconds
                entries.append(
                    {
                        "kernel": kernel,
                        "chunk_size": size,
                        "agg_seconds": agg_seconds,
                        "ns_per_row": agg_seconds / rows * 1e9,
                        "mrows_per_s": rows / agg_seconds / 1e6,
                        "speedup_vs_numpy": numpy_seconds[size] / agg_seconds,
                        "num_dark": int(result.num_dark()),
                    }
                )
        identical = _identical(results["numpy"], results["native"])
        return {
            "scale": "giant",
            "days": 1,
            "views": len(views),
            "rows": rows,
            "rows_per_day": rows,
            "archive_bytes": int(cache.stats().bytes),
            "build_seconds": build_seconds,
            "generate_seconds": generate_seconds if generated else None,
            "cached_generation": not generated,
            "num_dark": int(results["numpy"].num_dark()),
            "identical": identical,
            "kernel_scaling": {
                "provider": native_provider(),
                "rows": rows,
                "repeats": 1,
                "entries": entries,
            },
        }


def _view_rows(view) -> int:
    rows = getattr(view, "num_rows", None)
    return len(view.flows) if rows is None else rows


def _print_kernel_scaling(section: dict, scale: str) -> None:
    """Per-entry kernel timings; aborts on any backend divergence."""
    provider = section["provider"] or "none — numpy fallback"
    print(f"  kernels (native provider: {provider}):")
    for row in section["entries"]:
        identical = row.get("identical")
        suffix = "" if identical is None else f", identical={identical}"
        print(
            f"    kernel={row['kernel']} chunk={row['chunk_size']}: "
            f"{row['agg_seconds']:.3f}s "
            f"({row['ns_per_row']:.0f} ns/row, "
            f"x{row.get('speedup_vs_numpy', 1.0):.2f}){suffix}"
        )
        if identical is False:
            raise SystemExit(
                f"kernel={row['kernel']} diverged from the batch baseline "
                f"on scale {scale} at chunk_size={row['chunk_size']}: "
                f"{row['num_dark']} dark blocks"
            )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scales", nargs="+", choices=sorted([*_SCALES, "giant"]),
        default=["micro", "small", "paper"],
        help="'giant' (≥50 M rows/day) never runs unless named here",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--days", type=int, default=2)
    parser.add_argument("--chunk-size", type=int, default=4096)
    parser.add_argument(
        "--workers-list", type=int, nargs="+", default=[1, 2, 4, 8],
        help="worker counts for the fan-out scaling section "
        "(first entry is the speedup baseline)",
    )
    parser.add_argument(
        "--giant-cache", type=pathlib.Path, default=None,
        help="persistent capture cache for the giant scale (re-runs "
        "skip the minutes-long day simulation); temporary by default",
    )
    parser.add_argument("--output", type=pathlib.Path, default=_OUTPUT)
    args = parser.parse_args(argv)

    records = []
    for scale in args.scales:
        if scale == "giant":
            record = bench_giant(args.seed, args.chunk_size, args.giant_cache)
            records.append(record)
            print(
                f"giant: {record['rows']:,} rows/day over "
                f"{record['views']} views "
                f"({record['archive_bytes'] / 2**30:.2f} GiB archived), "
                f"identical={record['identical']}"
            )
            _print_kernel_scaling(record["kernel_scaling"], scale)
            if not record["identical"]:
                raise SystemExit("kernel backends diverged on scale giant")
            continue
        record = bench_world(
            scale, args.seed, args.days, args.chunk_size, args.workers_list
        )
        records.append(record)
        print(
            f"{scale}: {record['rows']:,} rows, "
            f"batch {record['batch']['seconds']:.2f}s "
            f"(agg peak {record['batch']['agg_peak_mib']:.1f} MiB), "
            f"chunked {record['chunked']['seconds']:.2f}s "
            f"(agg peak {record['chunked']['agg_peak_mib']:.1f} MiB), "
            f"identical={record['identical']}"
        )
        ingest = record["ingest_largest_view"]
        print(
            f"  ingest {ingest['rows']:,} rows from CSV: whole-day peak "
            f"{ingest['batch_peak_mib']:.1f} MiB vs streamed "
            f"{ingest['streamed_peak_mib']:.1f} MiB"
        )
        if not record["identical"]:
            raise SystemExit(f"chunked != batch on scale {scale}")
        for row in record["worker_scaling"]:
            print(
                f"  workers={row['workers']} ({row['mode']}): agg "
                f"{row['agg_seconds']:.2f}s (x{row['agg_speedup']:.2f}), "
                f"ipc {row['ipc_overhead_s'] * 1e3:.0f}ms, merge "
                f"{row['merge_s'] * 1e3:.0f}ms, balance "
                f"{row['balance']:.2f}, identical={row['identical']}"
            )
            if not row["identical"]:
                raise SystemExit(
                    f"parallel != serial on scale {scale} at "
                    f"workers={row['workers']}: {row['num_dark']} vs "
                    f"{record['num_dark']} dark blocks"
                )
        _print_kernel_scaling(record["kernel_scaling"], scale)
        archive = record["archive_vs_csv"]
        print(
            f"  archive: csv read {archive['csv_read_s']:.2f}s "
            f"({archive['csv_bytes'] / 2**20:.1f} MiB) vs flowpack "
            f"{archive['flowpack_read_s']:.3f}s "
            f"({archive['flowpack_bytes'] / 2**20:.1f} MiB) — "
            f"x{archive['read_speedup']:.1f}"
        )
        for row in archive["identity"]:
            if not row["identical"]:
                raise SystemExit(
                    f"archive-fed != batch on scale {scale} at "
                    f"chunk_size={row['chunk_size']} "
                    f"workers={row['workers']}: {row['num_dark']} vs "
                    f"{record['num_dark']} dark blocks"
                )
        overhead = record["engine_overhead"]
        print(
            f"  engine: direct {overhead['direct_seconds']:.3f}s vs "
            f"planned {overhead['engine_seconds']:.3f}s "
            f"(x{overhead['overhead_ratio']:.3f}), "
            f"identical={overhead['identical']}"
        )
        if not overhead["identical"]:
            raise SystemExit(
                f"engine path != direct path on scale {scale}"
            )
        cache = record["capture_cache"]
        print(
            f"  capture cache: cold {cache['cold_seconds']:.2f}s, warm "
            f"{cache['warm_seconds']:.2f}s (x{cache['speedup']:.1f}), "
            f"{cache['hits']} hit(s) / {cache['misses']} miss(es), "
            f"{cache['entries']} archive(s), "
            f"{cache['bytes'] / 2**20:.1f} MiB"
        )
        if cache["hits"] != cache["entries"] or cache["hits"] == 0:
            raise SystemExit(
                f"capture cache did not serve the warm run on scale "
                f"{scale}: {cache['hits']} hits over {cache['entries']} "
                "cached archives"
            )
        ipv6 = record["ipv6"]
        print(
            f"  ipv6: {ipv6['rows']:,} rows, {ipv6['seconds']:.2f}s, "
            f"served {ipv6['served']} /48s against {ipv6['truth_dark']} "
            f"truly dark (recall {ipv6['recall']:.1%}, "
            f"precision {ipv6['precision']:.1%}), "
            f"identity={ipv6['identity']}"
        )
        if not all(ipv6["identity"].values()):
            raise SystemExit(
                f"ipv6 engine paths diverged on scale {scale}: "
                f"{ipv6['identity']}"
            )

    payload = {
        "benchmark": "pipeline-batch-vs-chunked",
        "seed": args.seed,
        "chunk_size": args.chunk_size,
        "cpus": default_workers(),
        "workers_list": args.workers_list,
        "worlds": records,
    }
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

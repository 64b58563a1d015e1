"""Process-pool execution engine for vantage-day aggregation.

Per-vantage-day aggregation is embarrassingly parallel, and since the
streaming refactor every aggregate flows through the associative
:meth:`~repro.core.accum.PrefixAccumulator.merge`.  This module fans
the fold out the way a data-parallel training stack does:

1. **Shard** — :func:`shard_views` splits ``list[VantageDayView]`` work
   per view, cutting oversized views into row-range shards, and packs
   the shards into one balanced bucket per worker (longest-processing-
   time-first, deterministic);
2. **Fan out** — each worker folds its bucket into a partial
   :class:`~repro.core.accum.PrefixAccumulator` and ships the compact
   columnar wire form (:meth:`~repro.core.accum.PrefixAccumulator.
   to_state`) back — raw numpy arrays, never log-structured parts;
3. **Reduce** — the coordinator decodes the partials and
   :func:`tree_merge`\\ s them pairwise.

Because every count the accumulator tracks is an integer (exact in
float64), the fold is associative and commutative: **any** worker
count, shard order or merge grouping classifies bit-identically to the
serial path.  Whether to fan out at all is the execution plan's call:
:func:`~repro.core.engine.execute_plan` comes here only for plans in
parallel mode, with the plan's own shard buckets.

When every view is archive-backed (exposes ``slice_ref``), the fold
runs on a **persistent worker pool**: the pool is created once per
process count and reused across calls — chunks, days, rolling windows
— instead of re-forking per fold, and shards travel as picklable
(path, row-range) descriptors; each worker opens the flowpack memmap
itself and folds its assigned row range straight off the page cache,
so no flow payload ever crosses the pipe.  Re-forking per call was
the parallel engine's dominant overhead (IPC-bound ``agg_speedup``
< 1 in the pipeline benchmark); descriptor entries make pool reuse
safe because nothing depends on fork-time copy-on-write state.

In-memory views cannot ship as descriptors, so they keep the one-shot
path: under ``fork`` the views are inherited copy-on-write and only
shard indices cross the pipe; under ``spawn`` the shard payloads are
pickled across.  Per-worker wall time, IPC overhead and merge time
come back as :class:`ParallelStats`, which the engine puts on the
observability spine.
"""

from __future__ import annotations

import atexit
import multiprocessing
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, Sequence

import numpy as np

from repro.core.accum import PrefixAccumulator
from repro.traffic.flows import FlowTable
from repro.vantage.sampling import VantageDayView

__all__ = [
    "Shard",
    "ParallelStats",
    "WorkerReport",
    "parallel_accumulate_views",
    "partial_states_identical",
    "shard_views",
    "shutdown_worker_pools",
    "tree_merge",
]

#: A shard: (view index, first row, one-past-last row).
Shard = tuple[int, int, int]

#: Work inherited by forked workers (the plan, its views, ignored ASNs).
_FORK_WORK: tuple[Any, Sequence[VantageDayView], frozenset[int]] | None = None

#: Persistent pools, keyed by process count (descriptor entries only —
#: nothing a pooled worker runs depends on fork-time state).
_POOLS: dict[int, Any] = {}


def _persistent_pool(processes: int):
    """The reusable pool for ``processes`` workers (created on demand)."""
    pool = _POOLS.get(processes)
    if pool is None:
        method = (
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        pool = multiprocessing.get_context(method).Pool(processes=processes)
        _POOLS[processes] = pool
    return pool


@contextmanager
def _one_shot_pool(context, processes: int) -> Iterator[Any]:
    """A pool left through ``close()`` + ``join()``.

    ``with Pool(...)`` leaves through ``terminate()``, i.e. SIGTERM.  A
    forked worker inherits any Python-level SIGTERM handler of the
    embedding process, can be parked in a lock where it never runs it,
    and the parent's unbounded ``join()`` then hangs.  Idle workers told
    to finish by ``close()`` exit on their own; only a failed fold is
    terminated.
    """
    pool = context.Pool(processes=processes)
    try:
        yield pool
        pool.close()
    except BaseException:
        pool.terminate()
        raise
    finally:
        pool.join()


def shutdown_worker_pools() -> None:
    """Retire every persistent worker pool (tests; process exit) — by
    ``close()``, for the reason :func:`_one_shot_pool` gives."""
    for pool in _POOLS.values():
        pool.close()
        pool.join()
    _POOLS.clear()


atexit.register(shutdown_worker_pools)


@dataclass(frozen=True, slots=True)
class WorkerReport:
    """One worker's contribution to a parallel fold."""

    index: int
    shards: int
    rows: int
    #: Wall time of the worker's fold (inside the worker process).
    fold_seconds: float
    #: Wall time spent encoding the partial into its wire form.
    encode_seconds: float


@dataclass(frozen=True)
class ParallelStats:
    """Observability record of one parallel fold."""

    #: ``"pool"`` (persistent pool over archive descriptors), ``"fork"``
    #: or ``"spawn"``.
    mode: str
    #: Coordinator-side wall time decoding worker wire states.
    decode_seconds: float
    #: Coordinator-side wall time tree-merging the partials.
    merge_seconds: float
    partials: int
    reports: tuple[WorkerReport, ...]

    def ipc_seconds(self) -> float:
        """Wire-form encode plus decode time (the IPC overhead)."""
        return self.decode_seconds + sum(
            report.encode_seconds for report in self.reports
        )


def shard_views(
    views: Sequence[VantageDayView],
    workers: int,
    max_shard_rows: int | None = None,
) -> list[list[Shard]]:
    """Deterministic balanced buckets of (view, row-range) shards.

    Each view becomes one shard, except views larger than
    ``max_shard_rows`` (default: an even split of the total rows across
    workers), which are cut into row ranges — so a single giant
    vantage-day cannot serialise the fold.  Shards are packed
    longest-first onto the least-loaded bucket (LPT), ties resolved by
    original order, so the same input always yields the same buckets.
    Empty views still produce a shard: observing a silent vantage-day
    must reach the accumulator no matter which worker holds it.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1: {workers}")
    total_rows = sum(view.num_rows for view in views)
    if max_shard_rows is None:
        max_shard_rows = max(1, -(-total_rows // workers))
    if max_shard_rows < 1:
        raise ValueError(f"max_shard_rows must be >= 1: {max_shard_rows}")
    shards: list[Shard] = []
    for index, view in enumerate(views):
        rows = view.num_rows
        if rows == 0:
            shards.append((index, 0, 0))
            continue
        for start in range(0, rows, max_shard_rows):
            shards.append((index, start, min(start + max_shard_rows, rows)))

    buckets: list[list[Shard]] = [[] for _ in range(workers)]
    loads = [0] * workers
    for shard in sorted(
        shards, key=lambda shard: shard[2] - shard[1], reverse=True
    ):
        target = loads.index(min(loads))
        buckets[target].append(shard)
        loads[target] += shard[2] - shard[1]
    return [sorted(bucket) for bucket in buckets if bucket]


def tree_merge(partials: Sequence[PrefixAccumulator]) -> PrefixAccumulator:
    """Pairwise (tree) reduction of partial accumulators.

    Merging is associative, so the tree shape changes nothing about the
    result — it bounds the size imbalance between merge operands, the
    same reason training stacks all-reduce in trees.  The leftmost
    partial of each pair absorbs its sibling in place.
    """
    if not partials:
        raise ValueError("need at least one partial accumulator")
    level = list(partials)
    for partial in level:
        partial.compact()
    while len(level) > 1:
        merged: list[PrefixAccumulator] = []
        for left in range(0, len(level), 2):
            if left + 1 < len(level):
                level[left].merge(level[left + 1])
            merged.append(level[left])
        level = merged
    return level[0]


def _slice_table(flows: FlowTable, start: int, stop: int) -> FlowTable:
    """Zero-copy row-range slice of a flow table."""
    if start == 0 and stop >= len(flows):
        return flows
    return flows.slice_rows(start, stop)


def _shard_payload(view: VantageDayView, start: int, stop: int):
    """What a worker receives for one shard of ``view``.

    Archive-backed views hand out a picklable ``ArchiveSlice`` — the
    worker opens the memmap itself and reads only its row range, so
    the payload crossing the pipe (or surviving the fork) is a path
    plus two integers.  In-memory views slice zero-copy as before.
    """
    slice_ref = getattr(view, "slice_ref", None)
    if slice_ref is not None:
        return slice_ref(start, stop)
    return _slice_table(view.flows, start, stop)


def _fold_entries(
    entries: list[tuple[str, int, float, int | None, object]],
    ignored: frozenset[int],
    kernel: str,
) -> tuple[dict, int, int, float, float]:
    """Fold shard entries into a partial; return its wire state + stats.

    The worker entry (persistent pool, spawn) and what a forked worker
    runs on its bucket.  An entry is ``(vantage, day, sampling_factor,
    chunk_rows, payload)`` — ``chunk_rows`` is what the plan resolved
    for the shard's *view* — and its payload is either a
    :class:`FlowTable` or a lazy reference with a ``load()`` method (an
    archive slice); loading in here means the rows first exist inside
    the worker doing the fold.  ``kernel`` is the resolved backend
    *name* — each worker resolves its own backend instance (compiled
    libraries don't pickle).
    """
    started = time.perf_counter()
    accumulator = PrefixAccumulator(ignored, kernel=kernel)
    rows = 0
    for vantage, day, sampling_factor, chunk_rows, payload in entries:
        flows = payload.load() if hasattr(payload, "load") else payload
        rows += len(flows)
        accumulator.update_view(
            VantageDayView(vantage, day, flows, sampling_factor), chunk_rows
        )
    fold_seconds = time.perf_counter() - started
    started = time.perf_counter()
    state = accumulator.to_state()
    encode_seconds = time.perf_counter() - started
    return state, len(entries), rows, fold_seconds, encode_seconds


def _bucket_entries(
    plan, views: Sequence[VantageDayView], bucket: Sequence[Shard]
) -> list[tuple[str, int, float, int | None, object]]:
    """One of the plan's buckets as :func:`_fold_entries` entries."""
    return [
        (
            views[index].vantage,
            views[index].day,
            views[index].sampling_factor,
            plan.views[index].chunk_rows,
            _shard_payload(views[index], start, stop),
        )
        for index, start, stop in bucket
    ]


def _fold_fork_bucket(bucket: Sequence[Shard]):
    """Worker entry under ``fork``: views come in via copy-on-write."""
    plan, views, ignored = _FORK_WORK
    return _fold_entries(
        _bucket_entries(plan, views, bucket), ignored, plan.knobs.kernel
    )


def parallel_accumulate_views(
    plan,
    views: Sequence[VantageDayView],
    ignore_sources_from_asns: frozenset[int] = frozenset(),
) -> tuple[PrefixAccumulator, ParallelStats]:
    """The engine's fan-out: fold a parallel-mode plan across a pool.

    Everything comes from ``plan`` (an
    :class:`~repro.core.engine.ExecutionPlan`): one worker per shard
    bucket, each view's resolved chunk rows and the kernel *name* each
    worker resolves locally (compiled kernels don't pickle).  The
    merged accumulator is bit-identical to the serial fold for any
    shard layout — aggregation is exact-integer associative.

    When every view is archive-backed the shards go out as (path,
    row-range) descriptors over the persistent pool; otherwise the
    one-shot fork/spawn path carries the in-memory payloads.
    """
    global _FORK_WORK
    ignored = frozenset(ignore_sources_from_asns)
    buckets = plan.shards
    kernel = plan.knobs.kernel

    def payloads() -> list[tuple]:
        return [
            (_bucket_entries(plan, views, bucket), ignored, kernel)
            for bucket in buckets
        ]

    if all(getattr(view, "slice_ref", None) is not None for view in views):
        # Archive-backed: descriptor entries are tiny and carry no
        # process state, so the persistent pool folds them safely.
        pool = _persistent_pool(len(buckets))
        results = pool.starmap(_fold_entries, payloads())
        mode = "pool"
    elif "fork" in multiprocessing.get_all_start_methods():
        context = multiprocessing.get_context("fork")
        _FORK_WORK = (plan, views, ignored)
        try:
            with _one_shot_pool(context, len(buckets)) as pool:
                results = pool.map(_fold_fork_bucket, buckets)
        finally:
            _FORK_WORK = None
        mode = "fork"
    else:  # pragma: no cover - exercised only on spawn-only platforms
        context = multiprocessing.get_context("spawn")
        with _one_shot_pool(context, len(buckets)) as pool:
            results = pool.starmap(_fold_entries, payloads())
        mode = "spawn"

    started = time.perf_counter()
    partials = [
        PrefixAccumulator.from_state(state, kernel=kernel)
        for state, *_ in results
    ]
    decode_seconds = time.perf_counter() - started

    started = time.perf_counter()
    merged = tree_merge(partials)
    merge_seconds = time.perf_counter() - started

    reports = tuple(
        WorkerReport(index, shards, rows, fold_seconds, encode_seconds)
        for index, (_, shards, rows, fold_seconds, encode_seconds) in enumerate(
            results
        )
    )
    return merged, ParallelStats(
        mode=mode,
        decode_seconds=decode_seconds,
        merge_seconds=merge_seconds,
        partials=len(partials),
        reports=reports,
    )


def partial_states_identical(a: PrefixAccumulator, b: PrefixAccumulator) -> bool:
    """True when two accumulators carry bit-identical aggregates.

    Compares the compacted wire forms column by column — the strongest
    equivalence short of classifying: identical states finalize (and
    therefore classify) identically under any configuration.
    """
    state_a, state_b = a.to_state(), b.to_state()
    if state_a.keys() != state_b.keys():
        return False
    for key, value_a in state_a.items():
        value_b = state_b[key]
        if isinstance(value_a, dict):
            if value_a.keys() != value_b.keys():
                return False
            for inner, columns_a in value_a.items():
                if not _columns_equal(columns_a, value_b[inner]):
                    return False
        elif isinstance(value_a, tuple) and value_a and isinstance(
            value_a[0], np.ndarray
        ):
            if not _columns_equal(value_a, value_b):
                return False
        elif value_a != value_b:
            return False
    return True


def _columns_equal(a, b) -> bool:
    if isinstance(a, tuple) and a and isinstance(a[0], np.ndarray):
        return len(a) == len(b) and all(
            np.array_equal(col_a, col_b) for col_a, col_b in zip(a, b)
        )
    return a == b

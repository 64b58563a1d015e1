"""Thread fan-out of the vantage-day fold.

Per-vantage-day aggregation is embarrassingly parallel, and every
aggregate flows through the associative
:meth:`~repro.core.accum.PrefixAccumulator.merge`.  This module fans
the fold out in three steps:

1. **Shard** — :func:`shard_views` splits ``list[VantageDayView]`` work
   per view, cutting oversized views into row-range shards, and packs
   the shards into one balanced bucket per worker (longest-processing-
   time-first, deterministic);
2. **Fan out** — each bucket is folded into a partial
   :class:`~repro.core.accum.PrefixAccumulator` on its own thread;
3. **Reduce** — the coordinator :func:`tree_merge`\\ s the partials
   pairwise.

Because every count the accumulator tracks is an integer (exact in
float64), the fold is associative and commutative: **any** worker
count, shard order or merge grouping classifies bit-identically to the
serial path.  Whether to fan out at all is the execution plan's call:
:func:`~repro.core.engine.execute_plan` comes here only for plans in
parallel mode, with the plan's own shard buckets.

The workers are threads, not processes: the fold is small (one host,
about 0.15 M sampled rows a day) and the native kernel drops the GIL
for its C calls, so threads share the views, the resolved kernel and
the mapped archives with nothing to pickle, fork or decode.  Every
row-range shard's table is cut on the calling thread before the
fan-out, and a whole-view shard belongs to one thread, so no two
threads race on a view's lazy ``archive()`` or ``flows``.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

import numpy as np

from repro.core.accum import PrefixAccumulator
from repro.vantage.sampling import VantageDayView

__all__ = [
    "Shard",
    "parallel_accumulate_views",
    "partial_states_identical",
    "shard_views",
    "shutdown_worker_pools",
    "tree_merge",
]

#: A shard: (view index, first row, one-past-last row).
Shard = tuple[int, int, int]


def shutdown_worker_pools() -> None:
    """Nothing to retire: the fan-out keeps no pool between calls.

    Kept only because ``benchmarks/perf/trace.py`` (lines 223 and 259)
    imports and calls it around its two-worker fold probe; it goes with
    that call.
    """


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


def _shard_view(view, start: int, stop: int):
    """The view one shard folds: the view itself when the shard is the
    whole view, else a view over only its rows — read off the archive
    for archive-backed views, sliced zero-copy for in-memory ones."""
    if start == 0 and stop >= view.num_rows:
        return view
    if view.storage == "archive":
        flows = view.archive().read_rows(start, stop)
    else:
        flows = view.flows.slice_rows(start, stop)
    return VantageDayView(view.vantage, view.day, flows, view.sampling_factor)


def parallel_accumulate_views(
    plan,
    views: Sequence[VantageDayView],
    context,
    kernel,
    ignored: frozenset[int],
) -> PrefixAccumulator:
    """The engine's fan-out: fold a parallel-mode plan on threads.

    Everything comes from ``plan`` (an
    :class:`~repro.core.engine.ExecutionPlan`): one thread per shard
    bucket, each shard folded with the chunk rows the plan resolved
    for its *view*; ``kernel`` is the backend instance the coordinator
    resolved, shared by every thread; ``ignored`` are the ASNs whose
    sources the fold drops.  The merged accumulator is bit-identical
    to the serial fold for any shard layout — aggregation is
    exact-integer associative.

    ``context`` (a :class:`~repro.core.engine.RunContext`) gets one
    ``worker`` event per bucket (named ``fanout[wK]``, the CLI timing
    table's row name), stamped with the time its thread started, and
    one ``merge`` event.
    """
    buckets = [
        [
            (
                _shard_view(views[index], start, stop),
                plan.views[index].chunk_rows,
            )
            for index, start, stop in bucket
        ]
        for bucket in plan.shards
    ]

    def fold(bucket) -> tuple[PrefixAccumulator, float, float]:
        wall = time.time()
        started = time.perf_counter()
        partial = PrefixAccumulator(ignored, kernel=kernel)
        for view, chunk_rows in bucket:
            partial.update_view(view, chunk_rows)
        return partial, wall, time.perf_counter() - started

    with ThreadPoolExecutor(max_workers=len(buckets)) as executor:
        results = list(executor.map(fold, buckets))

    for index, (bucket, (_, wall, seconds)) in enumerate(zip(buckets, results)):
        rows = sum(view.num_rows for view, _ in bucket)
        context.emit(
            "worker",
            f"fanout[w{index}]",
            seconds,
            started=wall,
            rows_in=rows,
            rows_out=rows,
            meta={"shards": len(bucket)},
        )
    partials = [partial for partial, _, _ in results]
    wall = time.time()
    started = time.perf_counter()
    merged = tree_merge(partials)
    context.emit(
        "merge",
        "merge",
        time.perf_counter() - started,
        started=wall,
        rows_out=len(partials),
    )
    return merged


def partial_states_identical(a: PrefixAccumulator, b: PrefixAccumulator) -> bool:
    """True when two accumulators carry bit-identical aggregates.

    Compares the compacted columnar forms column by column — the
    strongest equivalence short of classifying: identical states
    finalize (and therefore classify) identically under any
    configuration.
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

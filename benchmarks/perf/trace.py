"""The traced run's instruments: spans around the calls into each
layer, and direct probes of what a span cannot see.

The traced run wraps the public functions the unit goes through
(``Tracer.wrap`` swaps an attribute for a recording wrapper and
``Tracer.restore`` puts it back), so a span is recorded from the
benchmark's own files at every layer boundary and nothing under
``src/`` changes.  Spans stay in memory until :meth:`Tracer.write`.

A layer's figure is its *self time*: its spans' duration minus the
part their child spans cover, so the layers of one unit add up to its
root span.  The ``probe_*`` functions add the unit costs no span isolates
(the numpy and chunked folds, merge, lookups, store replay, ...).
"""

from __future__ import annotations

import functools
import json
import os
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from statistics import median
from typing import Any, Callable, Iterator


class Tracer:
    """Records ``(name, start, end, parent, run)`` spans."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self.run = 0
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        record = {
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run,
        }
        self.spans.append(record)
        self._stack.append(index)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner: Any, attribute: str, name: str) -> None:
        """Record a span named ``name`` around ``owner.attribute`` (a
        function, method or classmethod of a module or class).

        Spans are only recorded while another span is open, so a
        wrapped function costs one list check outside a traced unit.
        """
        original = owner.__dict__[attribute]
        function = (
            original.__func__ if isinstance(original, classmethod) else original
        )

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not self._stack:
                return function(*args, **kwargs)
            with self.span(name):
                return function(*args, **kwargs)

        wrapper = classmethod(traced) if isinstance(original, classmethod) else traced
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    def wrap_iterator(self, owner: Any, attribute: str, name: str) -> None:
        """:meth:`wrap` for a generator function: one span per
        ``next()``, so the consumer's time is not charged to the
        producer."""
        original = owner.__dict__[attribute]

        @functools.wraps(original)
        def traced(*args, **kwargs):
            iterator = original(*args, **kwargs)
            if not self._stack:
                yield from iterator
                return
            while True:
                with self.span(name):
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                yield item

        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, traced)

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # -- arithmetic ----------------------------------------------------

    def self_times(self, run: int) -> dict[str, float]:
        """Self seconds per span name within one run (same-named spans
        add up)."""
        return self_times([s for s in self.spans if s["run"] == run], self.spans)

    def median_self_times(self) -> dict[str, float]:
        """Per span name, the median over runs of its self seconds."""
        runs = sorted({span["run"] for span in self.spans})
        per_run = [self.self_times(run) for run in runs]
        names = {name for times in per_run for name in times}
        return {
            name: median(times.get(name, 0.0) for times in per_run)
            for name in names
        }

    def write(self, path: str | Path, extra: dict[str, Any] | None = None) -> None:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(
            json.dumps({"spans": self.spans, **(extra or {})}) + "\n"
        )


def self_times(
    selected: list[dict[str, Any]], spans: list[dict[str, Any]]
) -> dict[str, float]:
    """Self seconds per name of ``selected`` spans; ``spans`` is the
    full list their ``parent`` indices point into."""
    children: dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]] = (
                children.get(span["parent"], 0.0) + span["end"] - span["start"]
            )
    index_of = {id(span): index for index, span in enumerate(spans)}
    totals: dict[str, float] = {}
    for span in selected:
        own = span["end"] - span["start"] - children.get(index_of[id(span)], 0.0)
        totals[span["name"]] = totals.get(span["name"], 0.0) + own
    return totals


# -- the wrap table -----------------------------------------------------


def instrument(tracer: Tracer) -> None:
    """Wrap every layer boundary the four units cross.

    Span names are the per-layer metric stems of ``BENCHMARK.json``.
    Functions the facade imported by name are wrapped where it looks
    them up (its own module namespace), not where they are defined.
    """
    import workloads
    from repro.core import ipv6_telescope, metatelescope, online
    from repro.core.accum import PrefixAccumulator
    from repro.core.engine import ExecutionPlanner
    from repro.core.snapshot import ClassificationSnapshot
    from repro.core.snapshot_store import SnapshotDeltaStore
    from repro.service.fleet import FleetSupervisor
    from repro.service.handle import SnapshotHandle
    from repro.vantage.archive import ArchiveDayView

    tracer.wrap_iterator(workloads, "iter_flows_csv", "io.csv_decode")
    tracer.wrap(ArchiveDayView, "open", "flowpack.open")
    tracer.wrap(ExecutionPlanner, "plan", "core.engine.plan")
    tracer.wrap(metatelescope.MetaTelescope, "accumulate", "core.accum.fold")
    tracer.wrap(PrefixAccumulator, "update", "core.accum.fold")
    tracer.wrap(metatelescope.MetaTelescope, "routing_for_days", "bgp.rib.routing")
    tracer.wrap(
        metatelescope, "tolerances_from_accumulator", "core.spoofing_tolerance"
    )
    tracer.wrap(metatelescope, "run_pipeline_accumulated", "core.pipeline.stages")
    tracer.wrap(metatelescope, "refine_with_liveness", "core.refine")
    tracer.wrap(ipv6_telescope, "ipv6_candidate_sites", "core.ipv6_candidates")
    for module in (metatelescope, online, ipv6_telescope):
        tracer.wrap(module, "build_snapshot", "core.snapshot.build")
    tracer.wrap(online, "score_feed", "faults.quality.score")
    tracer.wrap(online.OnlineMetaTelescope, "update", "core.online.update")
    tracer.wrap(online.OnlineMetaTelescope, "snapshot", "core.online.snapshot")
    tracer.wrap(ClassificationSnapshot, "enrich", "core.snapshot.enrich")
    tracer.wrap(ClassificationSnapshot, "save", "core.snapshot.save")
    tracer.wrap(ClassificationSnapshot, "open", "core.snapshot.open")
    tracer.wrap(SnapshotHandle, "publish", "service.handle.swap")
    tracer.wrap(SnapshotDeltaStore, "append", "core.snapshot_store.append")
    tracer.wrap(FleetSupervisor, "publish", "service.fleet.publish")


# -- direct probes ------------------------------------------------------


def median_seconds(function: Callable[[], Any], repeat: int = 3) -> float:
    samples = []
    for _ in range(repeat):
        started = time.perf_counter()
        function()
        samples.append(time.perf_counter() - started)
    return median(samples)


def state_arrays(state: dict[str, Any]) -> Iterator[Any]:
    """Every numpy array in a ``PrefixAccumulator.to_state()`` form."""
    for value in state.values():
        if isinstance(value, tuple):
            yield from (part for part in value if hasattr(part, "nbytes"))
        elif isinstance(value, dict):
            for parts in value.values():
                yield from (part for part in parts if hasattr(part, "nbytes"))


def probe_fold(workload, repeat: int, cpus: list[int]) -> dict[str, float]:
    """Fold-layer unit costs on the unit's first step.  ``cpus`` is what
    the two-worker fold may run on (the bench process itself is pinned
    to one core)."""
    from repro.core.parallel import shutdown_worker_pools

    views = workload.stored_views(0)
    telescope = workload.fold_telescope()
    rows = max(sum(view.num_rows for view in views), 1)

    def fold(**knobs):
        return telescope.accumulate(views, **knobs)

    numpy_s = median_seconds(lambda: fold(kernel="numpy"), repeat)
    chunked_s = median_seconds(
        lambda: fold(kernel="auto", chunk_size=4096), repeat
    )
    state = fold(kernel="auto").to_state()
    keys = max(len(state["dst_ip_sums"][0]), 1)
    half = max(len(views) // 2, 1)
    left = telescope.accumulate(views[:half], kernel="auto")
    right = telescope.accumulate(views[half:] or views[:half], kernel="auto")
    merge_s = median_seconds(lambda: left.copy().merge(right).compact(), repeat)
    tracemalloc.start()
    fold(kernel="auto")
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    ratios = []
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        for pair in range(repeat):
            seconds = {
                workers: median_seconds(
                    lambda: fold(kernel="auto", workers=workers), 1
                )
                for workers in ((None, 2) if pair % 2 else (2, None))
            }
            ratios.append(seconds[2] / seconds[None])
    finally:
        shutdown_worker_pools()
        os.sched_setaffinity(0, pinned)
    return {
        "core.accum.fold_numpy_ns_per_row": numpy_s / rows * 1e9,
        "core.accum.fold_chunked_ns_per_row": chunked_s / rows * 1e9,
        "core.accum.keys_per_row": keys / rows,
        "core.accum.merge_ms": merge_s * 1e3,
        "core.accum.state_bytes_per_key": (
            sum(array.nbytes for array in state_arrays(state)) / keys
        ),
        "core.accum.peak_traced_mib": peak / 2**20,
        "core.parallel.fold_w2_x": median(ratios),
    }


def probe_stored_input(workload, repeat: int) -> dict[str, float]:
    """Decode cost and size of the stored input, by its format."""
    from repro.flowpack import FlowpackArchive
    from repro.io import read_flows_csv_lenient

    paths = [path for step in range(workload.steps) for path in workload.paths(step)]
    per_row = workload.stored_bytes / workload.rows
    if paths[0].endswith(".csv"):
        rejected = sum(
            len(read_flows_csv_lenient(path)[1].errors) for path in paths
        )
        return {"io.csv_bytes_per_row": per_row, "io.csv_rows_rejected": rejected}
    decode_s = median_seconds(
        lambda: [FlowpackArchive(path).read_all(verify=True) for path in paths],
        repeat,
    )
    return {
        "flowpack.bytes_per_row": per_row,
        "flowpack.decode_ns_per_row": decode_s / workload.rows * 1e9,
    }


def probe_serving(stamped, previous, store, artifact: Path, rng) -> dict[str, float]:
    """Snapshot, store and in-process service unit costs on the last
    published snapshot."""
    from repro.service import MetaTelescopeService

    blocks = stamped.blocks
    targets = [int(block) for block in rng.choice(blocks, size=2000)]
    starts = [int(block) // 256 * 256 for block in rng.choice(blocks, size=300)]
    service = MetaTelescopeService()
    service.handle.adopt(stamped)

    def each(function, arguments) -> float:
        started = time.perf_counter()
        for argument in arguments:
            function(argument)
        return (time.perf_counter() - started) / len(arguments)

    return {
        "core.snapshot.diff_ms": median_seconds(lambda: stamped.diff(previous)) * 1e3,
        "core.snapshot.lookup_us": each(stamped.lookup, targets) * 1e6,
        "core.snapshot.range_us": each(
            lambda start: stamped.range(start, start + 255).head(200), starts
        ) * 1e6,
        "core.snapshot.bytes_per_block": artifact.stat().st_size / max(len(stamped), 1),
        "core.snapshot_store.load_ms": median_seconds(store.load) * 1e3,
        "core.snapshot_store.compactions": store.compactions,
        "service.daemon.point_us": each(
            lambda block: service.point(str(block)), targets
        ) * 1e6,
        "service.daemon.range_us": each(
            lambda start: service.range(start=start, end=start + 255, limit=200),
            starts,
        ) * 1e6,
    }


def cpu_ns(pid: int) -> int:
    """Nanoseconds ``pid``'s main thread has spent on a CPU."""
    return int(Path(f"/proc/{pid}/schedstat").read_text().split()[0])

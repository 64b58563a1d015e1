"""One engine, many frontends: planned execution with a trace spine.

Every way of running the seven-step inference — the batch facade
(:class:`~repro.core.metatelescope.MetaTelescope`), the rolling-window
online loop and the CLI — used to re-resolve the same knobs
(``chunk_size``, ``workers``, ``kernel``) and report timings in its own
shape.  This module centralises all of that:

* :func:`resolve_execution_knobs` — the **single** knob-resolution
  point (chunk-size validation, worker count, kernel backend).  No
  facade resolves knobs on its own anymore.
* :class:`ExecutionPlanner` — inspects the views (row counts, days,
  archive vs in-memory storage, CPU count) and emits a declarative,
  inspectable :class:`ExecutionPlan`: execution mode (``serial`` |
  ``chunked`` | ``parallel``), per-day batch rows, the size of the
  pool that folds the days, and the kernel backend.  A plan is data —
  print it, serialise it, compare it — and ``python -m repro plan``
  does exactly that without executing anything.
* :class:`RunContext` — threaded through every layer; carries the
  plan being executed and the **observability spine**: structured
  per-stage / per-chunk / per-worker :class:`ExecutionEvent` records
  emitted to pluggable sinks (:class:`MemorySink` for tests and
  facades, :class:`JsonlSink` for trace files).
* :func:`execute_plan` — the one fold path: the only code that turns
  views into an accumulator.  Every plan runs its one loop: each day
  folds into its own partial and the partials merge in day order, so
  every plan folds bit-identically.

Timings have no second shape: the CLI timing table is formatted
straight from a context's ``worker`` / ``merge`` / ``stage`` events,
the same records a ``--trace`` file holds.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, Mapping, Sequence

from repro.core.accum import PrefixAccumulator, days_of, resolve_chunk_size
from repro.core.kernels import NumpyKernel, get_kernel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.vantage.sampling import VantageDayView

#: Version stamped into every trace event (bump on schema changes).
TRACE_VERSION = 1

#: The golden schema: every key a serialised trace event carries, in
#: emission order, with the JSON types it accepts.  ``v`` is the
#: version stamp; the rest are :class:`ExecutionEvent`'s fields.
TRACE_SCHEMA: dict[str, tuple[type, ...]] = {
    "v": (int,),
    "kind": (str,),
    "name": (str,),
    "scope": (str,),
    "started": (int, float),
    "seconds": (int, float),
    "rows_in": (int, type(None)),
    "rows_out": (int, type(None)),
    "bytes": (int, type(None)),
    "peak_rss_mib": (int, float, type(None)),
    "cache_hits": (int, type(None)),
    "cache_misses": (int, type(None)),
    "quarantined": (int, type(None)),
    "meta": (dict, type(None)),
}
TRACE_FIELDS = tuple(TRACE_SCHEMA)


def default_workers() -> int:
    """Worker count matching the CPUs this process may run on."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def _peak_rss_mib() -> float | None:
    """Process high-water RSS in MiB (cheap; None where unsupported)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak_kib / 1024.0


# ---------------------------------------------------------------------------
# Knob resolution (the one copy)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ExecutionKnobs:
    """The resolved execution knobs every layer reads from.

    ``chunk_size`` keeps the public tri-state form (``None`` | int |
    ``"auto"``) because batch rows resolve *per day*;
    ``workers`` is always a concrete count >= 1; ``kernel`` is always
    a concrete backend name (``auto`` resolves at knob time), and
    ``backend`` the backend it names, which plans do not compare.
    """

    chunk_size: int | str | None
    workers: int
    kernel: str
    backend: NumpyKernel = field(compare=False, repr=False)


def resolve_execution_knobs(
    chunk_size: int | str | None = None,
    workers: int | None = None,
    kernel: str | None = None,
    *,
    cpus: int | None = None,
) -> ExecutionKnobs:
    """Resolve the public execution knobs once, for every frontend.

    * ``workers``: ``None``/``1`` → serial (1); ``0`` → one per
      available CPU; an explicit count is honoured literally —
      oversubscription is the operator's call.  The planner caps it at
      the number of days, the unit the pool folds; the fold is
      bit-identical at any count regardless.
    * ``chunk_size``: validated tri-state (``None`` | int >= 1 |
      ``"auto"``); per-view rows resolve later against each view's
      ``num_rows`` via :func:`~repro.core.accum.resolve_chunk_size`.
    * ``kernel``: compute backend (``auto`` | ``numpy``; default
      ``auto``).  Resolved here to a backend by
      :func:`~repro.core.kernels.get_kernel` — ``auto`` plans
      ``native`` only when the extension module loaded.
      Classification is bit-identical either way.
    """
    if cpus is None:
        cpus = default_workers()
    if workers is None:
        workers = 1
    elif workers == 0:
        workers = cpus
    elif workers < 0:
        raise ValueError(f"workers must be >= 0: {workers}")

    if isinstance(chunk_size, str):
        # Normalise through the shared validator (raises on junk).
        resolve_chunk_size(chunk_size, 0)
    elif chunk_size is not None and chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1: {chunk_size}")
    backend = get_kernel(kernel)
    return ExecutionKnobs(
        chunk_size=chunk_size,
        workers=workers,
        kernel=backend.name,
        backend=backend,
    )


# ---------------------------------------------------------------------------
# The declarative plan
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ViewSpec:
    """What the planner knows about one vantage-day view."""

    vantage: str
    day: int
    num_rows: int
    #: ``"archive"`` (memory-mapped flowpack) or ``"memory"``.
    storage: str
    sampling_factor: float
    #: Resolved rows per fold batch for this view's day (None: the
    #: whole day in one batch).
    chunk_rows: int | None


@dataclass(frozen=True)
class ExecutionPlan:
    """A declarative, inspectable execution plan.

    The plan is pure data: building it touches no flow payload (row
    counts come from ``num_rows``, which archive-backed views answer
    from segment headers), and executing it is
    :func:`execute_plan`'s job.  An identical fold across plans is the
    engine's core invariant, pinned by ``tests/core/test_engine.py``.
    """

    #: ``"serial"`` | ``"chunked"`` | ``"parallel"``.
    mode: str
    views: tuple[ViewSpec, ...]
    knobs: ExecutionKnobs

    @property
    def workers(self) -> int:
        """Threads folding the days (1 outside parallel mode)."""
        return self.knobs.workers

    def days(self) -> int:
        """Days the plan folds, one partial each."""
        return len({view.day for view in self.views})

    def total_rows(self) -> int:
        """Flow rows the plan will fold."""
        return sum(view.num_rows for view in self.views)

    def describe_rows(self) -> list[tuple[str, str]]:
        """(field, value) rows for the CLI ``plan`` renderer."""
        storages = {view.storage for view in self.views}
        chunk_rows = sorted(
            {view.chunk_rows for view in self.views if view.chunk_rows},
        )
        return [
            ("mode", self.mode),
            ("views", f"{len(self.views)}"),
            ("rows", f"{self.total_rows():,}"),
            ("storage", ", ".join(sorted(storages)) or "-"),
            ("days", f"{self.days()}"),
            ("workers", f"{self.workers}"),
            (
                "chunk rows",
                ", ".join(f"{rows:,}" for rows in chunk_rows) or "whole day",
            ),
            ("kernel", self.knobs.kernel),
        ]

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable form (trace events embed this)."""
        return {
            "mode": self.mode,
            "workers": self.workers,
            "total_rows": self.total_rows(),
            "kernel": self.knobs.kernel,
            "views": [
                {
                    "vantage": view.vantage,
                    "day": view.day,
                    "num_rows": view.num_rows,
                    "storage": view.storage,
                    "chunk_rows": view.chunk_rows,
                }
                for view in self.views
            ],
        }


def view_specs(
    views: Sequence["VantageDayView"], chunk_size: int | str | None
) -> tuple[ViewSpec, ...]:
    """Planner-side descriptors of the views (no payload touched).

    ``chunk_size`` resolves per day, against the day's rows over all
    its views: a day's views share one batch size.
    """
    rows = [int(view.num_rows) for view in views]
    day_rows: dict[int, int] = {}
    for view, count in zip(views, rows):
        day_rows[view.day] = day_rows.get(view.day, 0) + count
    return tuple(
        ViewSpec(
            vantage=view.vantage,
            day=view.day,
            num_rows=count,
            storage=view.storage,
            sampling_factor=float(view.sampling_factor),
            chunk_rows=resolve_chunk_size(chunk_size, day_rows[view.day]),
        )
        for view, count in zip(views, rows)
    )


@dataclass(frozen=True, slots=True)
class ExecutionPlanner:
    """Turns views + knobs (+ machine facts) into an ExecutionPlan.

    The planner is pure: the same views, knobs, and machine facts
    always yield the same plan, so plans can be printed, diffed and
    golden-tested.
    """

    cpus: int = field(default_factory=default_workers)

    def plan(
        self,
        views: Sequence["VantageDayView"],
        chunk_size: int | str | None = None,
        workers: int | None = None,
        kernel: str | None = None,
    ) -> ExecutionPlan:
        """Build the plan for one fold.

        The days are the unit a pool of threads shares out, so the
        pool has ``min(workers, days)`` threads; the planner picks
        ``parallel`` when that exceeds 1, else ``chunked`` when any
        day resolves a bounded batch size, else ``serial``.
        """
        knobs = resolve_execution_knobs(
            chunk_size, workers, kernel, cpus=self.cpus
        )
        specs = view_specs(views, knobs.chunk_size)
        pool = max(1, min(knobs.workers, len({spec.day for spec in specs})))
        if pool > 1:
            mode = "parallel"
        elif any(spec.chunk_rows is not None for spec in specs):
            mode = "chunked"
        else:
            mode = "serial"
        return ExecutionPlan(
            mode=mode, views=specs, knobs=replace(knobs, workers=pool)
        )


# ---------------------------------------------------------------------------
# The observability spine: events and sinks
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ExecutionEvent:
    """One structured record on the trace spine."""

    #: ``plan`` | ``view`` | ``chunk`` | ``worker`` | ``merge`` |
    #: ``stage`` | ``cache`` | ``generate`` | ``quarantine`` — open
    #: set; sinks must pass unknown kinds on.
    kind: str
    name: str
    #: Facade-assigned grouping label (e.g. ``fold`` / ``window``).
    scope: str = "run"
    #: Wall-clock start (``time.time()``), for ordering across threads
    #: and processes.
    started: float = 0.0
    seconds: float = 0.0
    rows_in: int | None = None
    rows_out: int | None = None
    bytes: int | None = None
    peak_rss_mib: float | None = None
    cache_hits: int | None = None
    cache_misses: int | None = None
    quarantined: int | None = None
    meta: Mapping[str, Any] | None = None

    def to_json(self) -> dict[str, Any]:
        """The serialised trace form (all TRACE_FIELDS, nulls kept)."""
        record = {name: getattr(self, name) for name in TRACE_FIELDS[1:]}
        if self.meta is not None:
            record["meta"] = dict(self.meta)
        return {"v": TRACE_VERSION, **record}


class MemorySink:
    """In-memory sink (tests, and every context's own event record)."""

    def __init__(self) -> None:
        self.events: list[ExecutionEvent] = []

    def emit(self, event: ExecutionEvent) -> None:
        self.events.append(event)

    def close(self) -> None:  # pragma: no cover - nothing to release
        pass


class JsonlSink:
    """Appends one JSON object per event to a trace file."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._handle = None

    def emit(self, event: ExecutionEvent) -> None:
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a")
        json.dump(event.to_json(), self._handle)
        self._handle.write("\n")

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


# ---------------------------------------------------------------------------
# RunContext
# ---------------------------------------------------------------------------


@dataclass
class RunContext:
    """Everything one execution carries through every layer.

    A context owns a private :class:`MemorySink` (so its events can
    always be read back, e.g. by the CLI timing table) plus any
    caller-supplied sinks, and the plan being executed
    (:func:`execute_plan` sets it).
    It is cheap to construct — facades make one per run when the
    caller does not pass one.
    """

    plan: ExecutionPlan | None = None
    sinks: tuple = ()
    scope: str = "run"
    _memory: MemorySink = field(default_factory=MemorySink, repr=False)

    # -- emission ------------------------------------------------------

    def emit(
        self,
        kind: str,
        name: str,
        seconds: float = 0.0,
        *,
        started: float | None = None,
        **counters: Any,
    ) -> ExecutionEvent:
        """Emit one event to the private and every attached sink
        (``counters``: :class:`ExecutionEvent`'s optional fields)."""
        event = ExecutionEvent(
            kind=kind,
            name=name,
            scope=self.scope,
            started=time.time() - seconds if started is None else started,
            seconds=seconds,
            **counters,
        )
        self._memory.emit(event)
        for sink in self.sinks:
            sink.emit(event)
        return event

    @contextmanager
    def scoped(self, scope: str) -> Iterator["RunContext"]:
        """Label every event emitted inside the block with ``scope``."""
        previous, self.scope = self.scope, scope
        try:
            yield self
        finally:
            self.scope = previous

    # -- derived views -------------------------------------------------

    def events(
        self, kinds: Sequence[str] | None = None
    ) -> tuple[ExecutionEvent, ...]:
        """Events recorded so far (optionally filtered by kind)."""
        if kinds is None:
            return tuple(self._memory.events)
        wanted = frozenset(kinds)
        return tuple(e for e in self._memory.events if e.kind in wanted)

    def close(self) -> None:
        """Flush and close every attached sink."""
        for sink in self.sinks:
            sink.close()


# ---------------------------------------------------------------------------
# The one fold path
# ---------------------------------------------------------------------------


def execute_plan(
    plan: ExecutionPlan,
    views: Sequence["VantageDayView"],
    context: RunContext | None = None,
    *,
    ignore_sources_from_asns: frozenset[int] = frozenset(),
) -> PrefixAccumulator:
    """Fold ``views`` into one accumulator, exactly as planned.

    Every plan runs the same loop: each day (in ``days_of`` order)
    folds into a fresh partial through
    :meth:`~repro.core.accum.PrefixAccumulator.update_day`, in batches
    of the rows the plan resolved for that day, and the partials merge
    in day order (one day: its partial is the result).  A parallel
    plan only maps the days over a pool of ``plan.workers`` threads;
    the code each day runs and the merge are the same, so every plan
    folds bit-identically, whatever the sampling factors.

    Each day's ``view`` and ``chunk`` events are recorded while it
    folds and emitted from the calling thread once it is done, so a
    sink never sees two threads at once.  A parallel plan adds one
    ``worker`` event per day (``fanout[dN]``, stamped when its thread
    started it) and one ``merge`` event.
    """
    if context is None:
        context = RunContext()
    context.plan = plan
    context.emit(
        "plan",
        plan.mode,
        rows_in=plan.total_rows(),
        meta=plan.to_dict(),
    )
    # One "kernel" event per execution: which backend computes (the
    # describe() meta carries the provider, and the reason when
    # ``auto`` fell back to the reference).
    kernel = plan.knobs.backend
    context.emit("kernel", kernel.name, meta=kernel.describe())
    batch_rows = {spec.day: spec.chunk_rows for spec in plan.views}

    def fold_day(day_views):
        day, members = day_views
        events: list[tuple[tuple, dict[str, Any]]] = []

        def on_batch(rows: int, seconds: float) -> None:
            events.append((
                ("chunk", f"d{day}", seconds),
                {"started": time.time() - seconds, "rows_in": rows},
            ))

        def on_view(view: "VantageDayView", seconds: float) -> None:
            events.append((
                ("view", f"{view.vantage}@d{view.day}", seconds),
                {
                    "started": time.time() - seconds,
                    "rows_in": int(view.num_rows),
                    "peak_rss_mib": _peak_rss_mib(),
                    "meta": {"storage": view.storage},
                },
            ))

        wall = time.time()
        started = time.perf_counter()
        partial = PrefixAccumulator(ignore_sources_from_asns, kernel=kernel)
        partial.update_day(day, members, batch_rows[day], on_batch, on_view)
        return partial, events, wall, time.perf_counter() - started

    days = days_of(views, lambda view: view.day)
    pooled = plan.workers > 1
    if pooled:
        with ThreadPoolExecutor(max_workers=plan.workers) as pool:
            folded = list(pool.map(fold_day, days))
    else:
        folded = map(fold_day, days)
    partials = []
    for (day, members), (partial, events, wall, seconds) in zip(days, folded):
        for args, counters in events:
            context.emit(*args, **counters)
        if pooled:
            rows = sum(int(view.num_rows) for view in members)
            context.emit(
                "worker",
                f"fanout[d{day}]",
                seconds,
                started=wall,
                rows_in=rows,
                rows_out=rows,
                meta={"views": len(members)},
            )
        partials.append(partial)
    if not partials:
        return PrefixAccumulator(ignore_sources_from_asns, kernel=kernel)
    if len(partials) == 1:
        return partials[0]
    wall = time.time()
    started = time.perf_counter()
    merged = PrefixAccumulator.merged(partials)
    if pooled:
        context.emit(
            "merge",
            "merge",
            time.perf_counter() - started,
            started=wall,
            rows_out=len(partials),
        )
    return merged


# ---------------------------------------------------------------------------
# Trace validation (against TRACE_SCHEMA)
# ---------------------------------------------------------------------------


def validate_trace_event(obj: Mapping[str, Any]) -> None:
    """Raise ``ValueError`` when one trace object violates the schema."""
    if set(obj) != set(TRACE_FIELDS):
        missing = set(TRACE_FIELDS) - set(obj)
        extra = set(obj) - set(TRACE_FIELDS)
        raise ValueError(
            f"trace event keys mismatch: missing={sorted(missing)} "
            f"extra={sorted(extra)}"
        )
    for name, types in TRACE_SCHEMA.items():
        value = obj[name]
        if isinstance(value, bool) or not isinstance(value, types):
            raise ValueError(
                f"trace field {name!r} has {type(value).__name__} "
                f"({value!r}); expected {[t.__name__ for t in types]}"
            )
    if obj["v"] != TRACE_VERSION:
        raise ValueError(f"unsupported trace version: {obj['v']!r}")
    if obj["seconds"] < 0:
        raise ValueError(f"negative duration: {obj['seconds']!r}")


def validate_trace_file(path: str | Path) -> int:
    """Validate a JSONL trace; returns the number of events checked."""
    count = 0
    with open(path) as handle:
        for line_number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(
                    f"{path}:{line_number}: not valid JSON: {error}"
                ) from error
            try:
                validate_trace_event(obj)
            except ValueError as error:
                raise ValueError(f"{path}:{line_number}: {error}") from error
            count += 1
    if count == 0:
        raise ValueError(f"{path}: trace contains no events")
    return count

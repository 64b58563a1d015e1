"""One run of one workload of the flows -> verdicts -> served-answers
benchmark.

    python3 benchmarks/perf/run.py --workload archive_batch --seed 1
    python3 benchmarks/perf/run.py --workload archive_batch --seed 1 --trace 1
    python3 benchmarks/perf/run.py --workload archive_batch --repeat 10

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` without ``--trace``, its per-layer metrics with it.
README.md explains the protocol; the short version is that no gated
timing is raw wall-clock -- each timed unit of system work is divided
by a frozen reference computation timed right beside it, and a metric
is the median of many such pair ratios.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import ExitStack, nullcontext
from functools import partial
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
if (REPO / "src" / "repro").is_dir():
    sys.path.insert(0, str(REPO / "src"))

_import_started = time.perf_counter()
try:
    import numpy as np

    from repro.core.engine import default_workers
    from repro.core.kernels import native_provider
    from repro.core.snapshot import (
        VERDICT_DARK,
        VERDICT_NAMES,
        ClassificationSnapshot,
    )
    from repro.core.snapshot_store import SnapshotDeltaStore
    from repro.service import FleetSupervisor, MetaTelescopeService
except ImportError as error:  # a checkout without src/ cannot be measured
    raise SystemExit(f"benchmark needs the repository's src/ tree: {error}")

import reference  # noqa: E402  (siblings; the script directory is on sys.path)
from client import KeepAliveClient, build_get, status_of  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    Workload,
    columns_equal,
    verdicts_equal,
)

#: Seconds this process spent importing numpy and the system.
IMPORT_S = time.perf_counter() - _import_started

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())

#: Pair counts behind the gated metrics at ``--seconds run_seconds``.
#: More seconds buy proportionally more pairs, fewer never go below
#: these floors: pair count, not window length, is what makes a median
#: of ratios repeat.
COLD_PAIRS = 20
CYCLE_PAIRS = 30
CAMPAIGNS = 20  # online_daily: campaigns of three days each
QUERY_PAIRS = 5000
SMOKE = {"cold": 2, "campaigns": 2, "queries": 60}

#: A publish must be answered by the worker within this many seconds.
SERVED_DEADLINE_S = 5.0
#: Query mix: point, range, revalidation.
QUERY_MIX = (0.5, 0.25, 0.25)
QUERY_CLASSES = ("point", "range", "revalidate")
HOT_KEYS = 64
RANGE_LIMIT = 200


# -- estimators ---------------------------------------------------------


def median_pair_ratio(ratios: list[float], ref_first: list[bool]) -> float:
    """Median of the per-pair ratios ``system_i / ref_i`` of each order,
    geometric mean of the two orders.

    A pair shares its second, so host-wide slow spells cancel inside
    the ratio before the median discards the pairs an interrupt still
    split.  But whichever side of a pair runs second runs slower -- the
    server it wakes has idled one request longer, the caches hold the
    other side's data -- by a factor that multiplies the ratio of
    ref-first pairs and divides that of system-first ones (1.73 against
    0.95 on point queries).  One median over both orders sits in the
    gap between two modes and moves with every pair that changes sides;
    the geometric mean of the two order medians cancels the factor.
    """
    if len(ratios) != len(ref_first) or not ratios:
        raise ValueError("need one order flag per pair ratio")
    by_order: dict[bool, list[float]] = {True: [], False: []}
    for ratio, flag in zip(ratios, ref_first):
        by_order[bool(flag)].append(ratio)
    return statistics.geometric_mean(
        statistics.median(group) for group in by_order.values() if group
    )


def campaign_ratio(system: list[float], ref: list[float]) -> float:
    """One campaign's ratio: the sum of its units over the sum of their
    references (a day's weight is its cost, not 1/3)."""
    return sum(system) / sum(ref)


def timed(function: Callable[[], Any]) -> tuple[float, Any]:
    started = time.perf_counter()
    result = function()
    return time.perf_counter() - started, result


class PhaseClock:
    """Wall seconds per phase, printed to stderr (README's time table)."""

    def __init__(self) -> None:
        self._last = time.perf_counter()

    def mark(self, phase: str) -> None:
        now = time.perf_counter()
        print(f"phase {phase}: {now - self._last:.1f}s", file=sys.stderr)
        self._last = now


class Ops:
    """Correctness checks counted as operations."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str, *details: Any) -> None:
        """Count one operation; ``what % details`` names a failed one
        (formatted only then: most checks pass, some details are big)."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 10:
                print(f"FAILED: {what % details}", file=sys.stderr)


# -- the harness --------------------------------------------------------


class Harness:
    """One run's processes and files: the workload's stored input, a
    one-worker fleet fed through the real publish protocol, the
    reference server and one keep-alive connection to each."""

    def __init__(self, workload: Workload, counts: dict[str, int]) -> None:
        self.workload = workload
        self.counts = counts
        self.ops = Ops()
        self.rng = np.random.default_rng([workload.seed, 0xBE7C4])
        self.root = workload.workdir
        #: Closes what :meth:`start` opened, newest first.
        self.resources = ExitStack()
        self.generation: dict[str, float] = {}
        self.boot_s = 0.0
        #: Per step, the reference computation on that step's input.
        self.references: list[Callable[[], Any]] = []
        self.baseline: list = []
        self.first_digests: list[bytes] = []
        self.last_published = None
        self.previous_published = None
        self.pairs = 0
        self.cycles = 0

    # -- set-up and teardown ------------------------------------------

    def start(self) -> None:
        """Boot the two servers, then generate while they import: they
        idle through phase G, so it costs the run no wall time."""
        workload = self.workload
        workload.build()
        self.ref_process = self.resources.enter_context(subprocess.Popen(
            [sys.executable, str(HERE / "ref_server.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        ))
        self.resources.callback(self.ref_process.terminate)
        pfx2as, geodb = workload.enrichment()
        self.store = SnapshotDeltaStore(self.root / "store")
        self.supervisor = FleetSupervisor(
            self.root / "fleet", processes=1, delta_store=self.store,
            pfx2as=pfx2as, geodb=geodb,
        )
        # The spawn context's resource tracker only exits after this
        # process does, unwaited; end it like every other child, once
        # the worker it tracks for is gone.
        self.resources.callback(resource_tracker._resource_tracker._stop)
        self.resources.callback(self.supervisor.stop)
        boot_started = time.time()
        self.supervisor.start()
        self.generation = workload.write_inputs()
        workload.attach()
        self.references = [
            partial(reference.ref_fold, inputs, workload.shift)
            if isinstance(inputs, dict)
            else partial(reference.ref_csv_fold, inputs)
            for inputs in workload.reference_inputs()
        ]
        self.baseline = workload.baseline()
        ref_port = int(self.ref_process.stdout.readline())
        self.supervisor.wait_ready()
        ready = self.root / "fleet" / "worker-0.json"
        self.boot_s = max(ready.stat().st_mtime - boot_started, 0.0)
        self.pin()
        # Closed first: a keep-alive connection still open makes the
        # draining worker log an asyncio CancelledError traceback.
        self.daemon = self.resources.enter_context(
            KeepAliveClient("127.0.0.1", self.supervisor.port)
        )
        self.ref = self.resources.enter_context(
            KeepAliveClient("127.0.0.1", ref_port)
        )
        # The world is millions of long-lived objects; frozen, the
        # collections between cycles scan only what a unit left behind.
        gc.collect()
        gc.freeze()

    def pin(self) -> None:
        """One core for this process (engine and load client), another
        for the worker and the reference server.

        Left to the scheduler, three processes on two cores settle in
        one of several placements -- a server sharing the client's core
        answers in half the time of one a wake-up interrupt away -- and
        which one a run gets decided its query ratios (point_x read 1.27
        or 1.50).  Pinned, both servers are the same wake-up away from
        the client on every run.
        """
        self.cpus = sorted(os.sched_getaffinity(0))
        if len(self.cpus) < 2:
            return
        os.sched_setaffinity(0, {self.cpus[0]})
        for pid in (self.supervisor.workers[0].process.pid, self.ref_process.pid):
            os.sched_setaffinity(pid, {self.cpus[-1]})

    def close(self) -> None:
        self.resources.close()

    # -- the paired reference -----------------------------------------

    def reference(self, step: int) -> float:
        """Seconds of one reference execution on ``step``'s input: the
        mean over ``ref_repeat`` back-to-back ones, so a reference much
        shorter than its unit is still a yardstick some tens of
        milliseconds long."""
        fold = self.references[step]
        repeat = self.workload.ref_repeat
        started = time.perf_counter()
        for _ in range(repeat):
            fold()
        return (time.perf_counter() - started) / repeat

    def pair(self, step: int, system: Callable[[], Any]):
        """Time the reference and ``system`` back to back, order
        alternating pair by pair; returns ``(ref_s, system_s, result,
        ref_first)``."""
        self.pairs += 1
        ref_first = self.pairs % 2 == 1
        if ref_first:
            ref_s = self.reference(step)
            system_s, out = timed(system)
        else:
            system_s, out = timed(system)
            ref_s = self.reference(step)
        return ref_s, system_s, out, ref_first

    # -- phase C: cold start to first answer --------------------------

    def cold_start(self):
        """Fresh engine -> stored input -> first unit -> publish ->
        first point answer, in this (warm) process."""
        workload = self.workload
        state = workload.begin(cold=True)
        snapshot = workload.step(state, 0)
        pfx2as, geodb = workload.enrichment()
        service = MetaTelescopeService(pfx2as=pfx2as, geodb=geodb)
        stamped = service.publish(snapshot)
        block = int(stamped.blocks[len(stamped) // 2])
        return stamped, block, service.point(str(block))

    def phase_cold(self) -> dict[str, list]:
        out: dict[str, list] = {"ref": [], "system": [], "ref_first": []}
        for _ in range(self.counts["cold"]):
            gc.collect()
            ref_s, system_s, (stamped, block, answer), ref_first = self.pair(
                0, self.cold_start
            )
            out["ref"].append(ref_s)
            out["system"].append(system_s)
            out["ref_first"].append(ref_first)
            plain = self.baseline[0]
            self.ops.check(
                answer["verdict"] == stamped.lookup(block).verdict_name
                and answer["snapshot_version"] == 1
                and np.array_equal(stamped.blocks, plain.blocks)
                and np.array_equal(stamped.verdicts, plain.verdicts),
                "cold start answered from a different snapshot",
            )
        return out

    # -- phase Y: stored input -> snapshot -> served ------------------

    def wait_served(self, version: int) -> float | None:
        """Poll ``GET /v1/snapshot`` until it carries ``version``;
        returns when that answer arrived, ``None`` past the deadline."""
        request = build_get("/v1/snapshot")
        deadline = time.perf_counter() + SERVED_DEADLINE_S
        while True:
            head, body = self.daemon.request(request)
            now = time.perf_counter()
            if (
                status_of(head) == 200
                and json.loads(body)["snapshot_version"] >= version
            ):
                return now
            if now > deadline:
                return None
            time.sleep(0.002)

    def between_cycles(self) -> None:
        """Collect, then wait out a stratified share of the worker's
        poll interval.  The previous cycle ended on a poll tick, and a
        unit's length hardly varies, so without this every publish of a
        run lands on the same phase of the worker's sentinel poll and
        the run measures one arbitrary lag instead of the lag's
        distribution."""
        gc.collect()
        self.cycles += 1
        share = self.cycles * 0.6180339887 % 1.0  # low-discrepancy
        time.sleep(share * self.supervisor.poll_interval)

    def cycle(
        self, state: Any, step: int, tracer=None, stand_in: bool = False
    ) -> dict[str, Any]:
        """One unit: stored input -> snapshot (t1) -> publish -> first
        HTTP answer carrying the new version (t2).

        The traced run records its span tree over the part this process
        executes (``tracer``) and adds the worker's re-open of the
        artifact in-process (``stand_in``), because the worker's own
        happens in another process where no span can see it.
        """
        store_before = self.store.total_bytes()
        compactions = self.store.compactions
        artifact = self.root / "fleet" / "snapshot.fpk"
        started = time.perf_counter()
        with tracer.span("unit") if tracer is not None else nullcontext():
            snapshot = self.workload.step(state, step)
            inferred = time.perf_counter()
            stamped = self.supervisor.publish(snapshot)
            if stand_in:
                ClassificationSnapshot.open(artifact, verify=False)
        published = time.perf_counter()
        served = self.wait_served(stamped.version)
        self.ops.check(
            served is not None,
            "version %d not served within %.0f s",
            stamped.version, SERVED_DEADLINE_S,
        )
        self.previous_published = self.last_published or stamped
        self.last_published = stamped
        # What the publish left in the store: its delta segment, or the
        # whole base when it triggered a compaction.
        store_bytes = self.store.total_bytes()
        if self.store.compactions == compactions:
            store_bytes -= store_before
        return {
            "snapshot": snapshot,
            "stamped": stamped,
            "infer_s": inferred - started,
            "unit_s": published - started,
            "served_s": (served or published) - started,
            "lag_s": (served or published) - published,
            "artifact_bytes": artifact.stat().st_size,
            "store_bytes": store_bytes,
        }

    def check_unit(self, step: int, snapshot) -> None:
        """Outside every timed span: the first snapshot of a step equals
        the plain path's, and every later one repeats it bit for bit."""
        digest = hashlib.sha256(
            b"".join(column.tobytes() for column in snapshot.arrays().values())
        ).digest()
        if step == len(self.first_digests):
            self.first_digests.append(digest)
            self.ops.check(
                verdicts_equal(snapshot, self.baseline[step]),
                "step %d: snapshot differs from the numpy batch path", step,
            )
        else:
            self.ops.check(
                digest == self.first_digests[step],
                "step %d: snapshot changed between campaigns", step,
            )

    def phase_cycles(self, queries: "QueryLoad") -> dict[str, float]:
        workload = self.workload
        ratios: dict[str, list[float]] = {"infer_s": [], "unit_s": []}
        ref_first: list[bool] = []  # per campaign, the order it began in
        lags, bytes_per_block = [], []
        for _ in range(self.counts["campaigns"]):
            state = workload.begin(cold=False)
            refs: list[float] = []
            seconds: dict[str, list[float]] = {name: [] for name in ratios}
            for step in range(workload.steps):
                self.between_cycles()
                ref_s, _, result, order = self.pair(
                    step, lambda: self.cycle(state, step)
                )
                if step == 0:
                    ref_first.append(order)
                self.check_unit(step, result["snapshot"])
                refs.append(ref_s)
                for name in seconds:
                    seconds[name].append(result[name])
                lags.append(result["lag_s"])
                bytes_per_block.append(
                    (result["artifact_bytes"] + result["store_bytes"])
                    / max(len(result["stamped"]), 1)
                )
            for name in ratios:
                ratios[name].append(campaign_ratio(seconds[name], refs))
            if workload.burst_per_campaign:
                queries.burst(self.counts["queries"] // self.counts["campaigns"])
        if not workload.burst_per_campaign:
            queries.burst(self.counts["queries"])
        # Publish -> served is a wait on the worker's poll timer, not
        # work: it does not stretch with the machine as the reference
        # does, so dividing it by the measured reference would make a
        # slow spell look like a faster adoption.  It enters as absolute
        # seconds over the frozen nominal reference; and as the run's
        # mean, because one lag is a uniform draw from the poll phase.
        nominal = reference.REF_NOMINAL_S[workload.name]
        return {
            "infer_x": median_pair_ratio(ratios["infer_s"], ref_first),
            "day_to_served_x": (
                median_pair_ratio(ratios["unit_s"], ref_first)
                + statistics.fmean(lags) / nominal
            ),
            "publish_bytes_per_block": statistics.fmean(bytes_per_block),
        }

    # -- the traced run's units ---------------------------------------

    def traced_campaigns(self, tracer) -> dict[str, list[float]]:
        """Campaigns in pairs, one traced and one not, order
        alternating: per traced unit its span coverage, per pair the
        traced/untraced ratio, and the raw seconds of the untraced side."""
        workload = self.workload
        out: dict[str, list[float]] = {
            name: [] for name in (
                "ref", "infer_s", "served_s", "lag_s", "store_bytes",
                "coverage", "overhead_x",
            )
        }
        for campaign in range(self.counts["campaigns"]):
            unit_s: dict[bool, list[float]] = {True: [], False: []}
            for traced in ((True, False) if campaign % 2 else (False, True)):
                state = workload.begin(cold=False)
                for step in range(workload.steps):
                    self.between_cycles()
                    ref_s = self.reference(step)
                    tracer.run += traced
                    result = self.cycle(
                        state, step, tracer if traced else None, stand_in=True
                    )
                    self.check_unit(step, result["snapshot"])
                    unit_s[traced].append(result["unit_s"])
                    if traced:
                        uncovered = tracer.self_times(tracer.run)["unit"]
                        out["coverage"].append(1.0 - uncovered / result["unit_s"])
                    else:
                        out["ref"].append(ref_s)
                        for name in ("infer_s", "served_s", "lag_s", "store_bytes"):
                            out[name].append(result[name])
            out["overhead_x"].extend(
                with_spans / without
                for with_spans, without in zip(unit_s[True], unit_s[False])
            )
        return out

    # -- phase M: peak memory of one unit -----------------------------

    def phase_memory(self) -> float:
        """A child process runs one cold campaign, no references, and
        reports its resident high-water mark."""
        workload = self.workload
        command = [
            sys.executable, str(HERE / "run.py"), "--memory-child",
            "--workload", workload.name, "--seed", str(workload.seed),
            "--workdir", str(workload.workdir),
        ] + (["--smoke"] if workload.smoke else [])
        child = subprocess.run(command, capture_output=True, text=True)
        self.ops.check(
            child.returncode == 0, "memory child failed: %s", child.stderr[-500:]
        )
        if child.returncode != 0:
            return 0.0
        return json.loads(child.stdout.splitlines()[-1])["maxrss_mib"]

    # -- after the last publish ---------------------------------------

    def check_store(self) -> None:
        """The delta store's newest version must read back as what was
        last published.  The family tag is left out of the comparison:
        ``SnapshotDeltaStore.load`` rebuilds a snapshot without it, so
        an IPv6 store reads back tagged ipv4 (found by this benchmark,
        see README.md; fixing it is not this change's to do)."""
        loaded = self.store.load()
        published = self.last_published
        self.ops.check(
            loaded.version == published.version
            and loaded.day == published.day
            and dict(loaded.provenance) == dict(published.provenance)
            and columns_equal(loaded, published),
            "delta store's last version differs from what was published",
        )


class QueryLoad:
    """Phase Q: one closed-loop connection to the worker, each request
    paired with its reference request on the reference server.

    Closed loop because the callers modelled -- a member's looking-glass
    script, a poller -- wait for each reply, and because open-loop
    rates do not repeat on two shared cores.
    """

    def __init__(self, harness: Harness) -> None:
        self.harness = harness
        self.system_us: dict[str, list[float]] = {c: [] for c in QUERY_CLASSES}
        self.ref_us: dict[str, list[float]] = {c: [] for c in QUERY_CLASSES}
        self.ref_first: dict[str, list[bool]] = {c: [] for c in QUERY_CLASSES}

    def plan(self, pairs: int, classes: np.ndarray | None = None):
        """Seeded requests against the last published snapshot: the
        request bytes for both servers and what the answer must say."""
        harness = self.harness
        rng = harness.rng
        snapshot = harness.last_published
        blocks = snapshot.blocks
        version = snapshot.version
        if classes is None:
            # Drawn, not rotated: a fixed rotation lets the heavy range
            # requests cool the caches for whatever class follows them.
            classes = rng.choice(len(QUERY_CLASSES), size=pairs, p=QUERY_MIX)
        count = len(classes)
        # Point targets: half classified blocks, half uniformly random
        # ones (so almost surely unclassified).
        points = np.where(
            rng.random(count) < 0.5,
            rng.choice(blocks, size=count),
            rng.integers(blocks[0], blocks[-1] + 1, size=count),
        )
        rows = snapshot.indices_of(points)
        verdicts = np.where(rows >= 0, snapshot.verdicts[rows], 0)
        dark = snapshot.dark_blocks if len(snapshot.dark_blocks) else blocks
        starts = rng.choice(dark, size=count) // 256 * 256
        totals = np.searchsorted(blocks, starts + 255, side="right") - (
            np.searchsorted(blocks, starts, side="left")
        )
        hot = rng.choice(blocks, size=min(HOT_KEYS, len(blocks)), replace=False)
        revalidated = rng.choice(hot, size=count)
        etag = {"If-None-Match": f'"v{version}"'}
        plan = []
        for index, kind in enumerate(classes):
            name = QUERY_CLASSES[kind]
            if name == "point":
                block = int(points[index])
                system = build_get(f"/v1/point?block={block}")
                ref = build_get(f"/ref/point?block={block}")
                expect = (block, int(verdicts[index]))
            elif name == "range":
                start, total = int(starts[index]), int(totals[index])
                system = build_get(
                    f"/v1/range?start={start}&end={start + 255}"
                    f"&limit={RANGE_LIMIT}"
                )
                ref = build_get(f"/ref/rows?n={min(total, RANGE_LIMIT)}")
                expect = total
            else:
                block = int(revalidated[index])
                system = build_get(f"/v1/point?block={block}", etag)
                ref = build_get(f"/ref/point?block={block}")
                expect = block
            plan.append((name, system, ref, expect))
        return plan

    def burst(self, pairs: int, classes: np.ndarray | None = None) -> None:
        harness = self.harness
        plan = self.plan(pairs, classes)
        daemon, ref = harness.daemon.request, harness.ref.request
        replies = []
        clock = time.perf_counter
        gc.collect()
        gc.disable()
        try:
            for index, (name, system_bytes, ref_bytes, _) in enumerate(plan):
                if index % 2 == 0:
                    t0 = clock()
                    ref_reply = ref(ref_bytes)
                    t1 = clock()
                    reply = daemon(system_bytes)
                    t2 = clock()
                    ref_s, system_s = t1 - t0, t2 - t1
                else:
                    t0 = clock()
                    reply = daemon(system_bytes)
                    t1 = clock()
                    ref_reply = ref(ref_bytes)
                    t2 = clock()
                    system_s, ref_s = t1 - t0, t2 - t1
                replies.append((reply, ref_reply))
                self.system_us[name].append(system_s * 1e6)
                self.ref_us[name].append(ref_s * 1e6)
                self.ref_first[name].append(index % 2 == 0)
        finally:
            gc.enable()
        self.validate(plan, replies)

    def validate(self, plan, replies) -> None:
        """Every answer against the in-memory snapshot it must come
        from -- after the burst, outside every timed span."""
        harness = self.harness
        snapshot = harness.last_published
        for (name, _, _, expect), ((head, body), (ref_head, _)) in zip(plan, replies):
            if status_of(ref_head) != 200:
                raise RuntimeError(f"reference server answered {ref_head!r}")
            status = status_of(head)
            if name == "revalidate":
                harness.ops.check(
                    status == 304 and not body,
                    "revalidation of block %d got %d", expect, status,
                )
                continue
            answer = json.loads(body) if status == 200 else {}
            ok = answer.get("snapshot_version") == snapshot.version
            if name == "point":
                block, verdict = expect
                ok = ok and (
                    answer.get("verdict") == VERDICT_NAMES[verdict]
                    and answer.get("dark") == (verdict == VERDICT_DARK)
                    and answer.get("block") == block
                )
            else:
                ok = ok and (
                    answer.get("total") == expect
                    and len(answer.get("rows", ())) == min(expect, RANGE_LIMIT)
                )
            harness.ops.check(
                ok, "%s answer for %s: %d %s", name, expect, status, answer
            )

    def ratio(self, name: str) -> float:
        return median_pair_ratio(
            [s / r for s, r in zip(self.system_us[name], self.ref_us[name])],
            self.ref_first[name],
        )


# -- one run ------------------------------------------------------------


def counts_for(args: argparse.Namespace, workload: type[Workload]) -> dict[str, int]:
    if args.smoke:
        return dict(SMOKE)
    scale = max(1.0, args.seconds / SPEC["run_seconds"])
    campaigns = CYCLE_PAIRS if workload.steps == 1 else CAMPAIGNS
    return {
        "cold": round(COLD_PAIRS * scale),
        "campaigns": round(campaigns * scale),
        "queries": round(QUERY_PAIRS * scale),
    }


def fingerprint() -> dict[str, Any]:
    """The environment every number in a run belongs to."""
    head = REPO / ".git" / "HEAD"
    sha = "none"
    if head.exists():
        sha = head.read_text().strip()
        if sha.startswith("ref: "):
            ref = REPO / ".git" / sha[5:]
            sha = ref.read_text().strip() if ref.exists() else sha[5:]
    return {
        "cpus": default_workers(),  # by affinity
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_provider": native_provider() or "numpy",
        "git": sha[:12],
    }


def make_workdir() -> Path:
    workdir = HERE / ".work" / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return workdir


def run_end_to_end(args: argparse.Namespace) -> dict[str, Any]:
    """The untraced run: every end-to-end metric of ``BENCHMARK.json``."""
    workdir = make_workdir()
    workload = WORKLOADS[args.workload](args.seed, workdir, smoke=args.smoke)
    harness = Harness(workload, counts_for(args, WORKLOADS[args.workload]))
    try:
        clock = PhaseClock()
        harness.start()
        clock.mark("generate")
        queries = QueryLoad(harness)
        cold = harness.phase_cold()
        clock.mark("cold")
        cycles = harness.phase_cycles(queries)
        harness.check_store()
        clock.mark("cycles+queries")
        peak_mib = harness.phase_memory()
        clock.mark("memory")
    finally:
        harness.close()
        shutil.rmtree(workdir, ignore_errors=True)
    nominal = reference.REF_NOMINAL_S[workload.name]
    values = {
        "setup_s": nominal * median_pair_ratio(
            [s / r for s, r in zip(cold["system"], cold["ref"])],
            cold["ref_first"],
        ),
        **cycles,
        "point_x": queries.ratio("point"),
        "range_x": queries.ratio("range"),
        "revalidate_x": queries.ratio("revalidate"),
        "engine_peak_rss_mib": peak_mib,
        "archive_bytes_per_row": workload.stored_bytes / workload.rows,
    }
    return result_of(harness.ops, values, SPEC["end_to_end"])


# -- the traced run -----------------------------------------------------

#: Per-layer metric -> (span it is the self time of, what one unit of
#: the metric is).  Spans are named in ``trace.instrument``.
SPAN_METRICS = {
    "io.csv_decode_ns_per_row": ("io.csv_decode", "ns/row"),
    "flowpack.open_us": ("flowpack.open", "us/open"),
    "core.engine.plan_ms": ("core.engine.plan", "ms"),
    "core.accum.fold_ns_per_row": ("core.accum.fold", "ns/row"),
    "bgp.rib.routing_ms": ("bgp.rib.routing", "ms"),
    "core.spoofing_tolerance.ms": ("core.spoofing_tolerance", "ms"),
    "core.pipeline.stages_ms": ("core.pipeline.stages", "ms"),
    "core.pipeline.stages_ns_per_block": ("core.pipeline.stages", "ns/block"),
    "core.refine.ms": ("core.refine", "ms"),
    "core.ipv6_candidates.ms": ("core.ipv6_candidates", "ms"),
    "faults.quality.score_ms_per_day": ("faults.quality.score", "ms"),
    "faults.quality.score_ns_per_row": ("faults.quality.score", "ns/row"),
    "core.online.update_ms": ("core.online.update", "ms"),
    "core.online.snapshot_ms": ("core.online.snapshot", "ms"),
    "core.snapshot.build_ms": ("core.snapshot.build", "ms"),
    "core.snapshot.enrich_ms": ("core.snapshot.enrich", "ms"),
    "core.snapshot.save_ms": ("core.snapshot.save", "ms"),
    "core.snapshot.open_ms": ("core.snapshot.open", "ms"),
    "core.snapshot_store.append_ms": ("core.snapshot_store.append", "ms"),
    "service.handle.swap_us": ("service.handle.swap", "us"),
    "service.fleet.publish_ms": ("service.fleet.publish", "ms"),
}

#: Traced units per run (campaigns are rounded up to whole ones).
TRACED_UNITS = 9
TRACE_COLD_PAIRS = 3
TRACE_QUERIES_PER_CLASS = 600


def run_traced(args: argparse.Namespace) -> dict[str, Any]:
    """``--trace 1``: every per-layer metric of ``BENCHMARK.json``.

    Traced and untraced units alternate, so the spans' own cost is
    measured (``trace.overhead_x``) instead of assumed; a layer's figure
    is its self time, median over the traced units.
    """
    from trace import (
        Tracer, cpu_ns, instrument, probe_fold, probe_serving,
        probe_stored_input,
    )

    workdir = make_workdir()
    workload = WORKLOADS[args.workload](args.seed, workdir, smoke=args.smoke)
    units = 2 if args.smoke else TRACED_UNITS
    counts = {
        "cold": 1 if args.smoke else TRACE_COLD_PAIRS,
        "campaigns": -(-units // workload.steps),
        "queries": 20 if args.smoke else TRACE_QUERIES_PER_CLASS,
    }
    harness = Harness(workload, counts)
    tracer = Tracer()
    values: dict[str, float] = {}
    try:
        harness.start()
        instrument(tracer)
        values.update(harness.generation)
        cold = harness.phase_cold()
        units_out = harness.traced_campaigns(tracer)
        harness.check_store()
        layers = tracer.median_self_times()
        repeat = 1 if args.smoke else 3
        values.update(probe_fold(workload, repeat, harness.cpus))
        values.update(probe_stored_input(workload, repeat))
        values.update(probe_serving(
            harness.last_published, harness.previous_published, harness.store,
            harness.root / "fleet" / "snapshot.fpk", harness.rng,
        ))
        queries = QueryLoad(harness)
        worker_pid = harness.supervisor.workers[0].process.pid
        cpu_us = {}
        for kind, name in enumerate(QUERY_CLASSES):
            before = cpu_ns(worker_pid)
            queries.burst(
                counts["queries"], np.full(counts["queries"], kind)
            )
            cpu_us[name] = (cpu_ns(worker_pid) - before) / counts["queries"] / 1e3
    finally:
        tracer.restore()
        harness.close()
        tracer.write(
            HERE / "out" / f"trace-{workload.name}.json",
            {"workload": workload.name, "seed": args.seed},
        )
        shutil.rmtree(workdir, ignore_errors=True)

    per = {
        "ms": 1e-3,
        "us": 1e-6,
        "ns/row": 1e-9 * workload.rows / workload.steps,
        "ns/block": 1e-9 * max(len(harness.last_published), 1),
        "us/open": 1e-6 * max(len(workload.paths(0)), 1),
    }
    for name, (span, unit) in SPAN_METRICS.items():
        values[name] = layers.get(span, 0.0) / per[unit]
    values.update({
        "core.snapshot_store.bytes_per_publish": statistics.fmean(units_out["store_bytes"]),
        "service.fleet.adopt_lag_ms": statistics.median(units_out["lag_s"]) * 1e3,
        "service.fleet.boot_s": harness.boot_s,
        "sys.unit_s": statistics.median(units_out["infer_s"]),
        "sys.served_s": statistics.median(units_out["served_s"]),
        "sys.setup_s": statistics.median(cold["system"]),
        "ref.unit_s": statistics.median(units_out["ref"]),
        "world.rows_per_unit": workload.rows / workload.steps,
        "process.import_s": IMPORT_S,
        "trace.coverage": statistics.median(units_out["coverage"]),
        "trace.overhead_x": statistics.median(units_out["overhead_x"]),
    })
    for name in QUERY_CLASSES:
        values[f"service.http.{name}_p50_us"] = np.percentile(queries.system_us[name], 50)
        values[f"service.http.{name}_cpu_us"] = cpu_us[name]
    for name in ("point", "range"):
        values[f"service.http.{name}_p99_us"] = np.percentile(queries.system_us[name], 99)
    values["service.http.ref_point_p50_us"] = np.percentile(queries.ref_us["point"], 50)
    values["service.http.ref_rows_p50_us"] = np.percentile(queries.ref_us["range"], 50)
    return result_of(harness.ops, values, SPEC["per_layer"])


def result_of(ops: Ops, values: dict[str, float], declared: list[dict]) -> dict:
    units = {metric["name"]: metric["unit"] for metric in declared}
    unknown = set(values) - set(units)
    if unknown:
        raise RuntimeError(f"metrics not in BENCHMARK.json: {sorted(unknown)}")
    return {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {
            # A layer a workload leaves idle reports 0.
            name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()
        },
    }


def peak_rss_kib() -> int:
    """This process's resident high-water mark.

    ``VmHWM`` rather than ``ru_maxrss``: a child started by fork+exec
    inherits the parent's ``ru_maxrss`` (exec folds the old address
    space's peak into it), so it would report the bench process's
    generation peak instead of the unit's.
    """
    with open("/proc/self/status") as status:
        return next(
            int(line.split()[1]) for line in status if line.startswith("VmHWM:")
        )


def memory_child(args: argparse.Namespace) -> None:
    workload = WORKLOADS[args.workload](
        args.seed, Path(args.workdir), smoke=args.smoke
    )
    workload.build()
    workload.attach()
    state = workload.begin(cold=True)
    for step in range(workload.steps):
        workload.step(state, step)
    print(json.dumps({"maxrss_mib": peak_rss_kib() / 1024.0}))


# -- repeated runs ------------------------------------------------------


def spread(values: list[float]) -> dict[str, float]:
    """Median, range and interquartile range (both as shares of the
    median) of one metric over repeated runs."""
    middle = statistics.median(values)
    summary = {
        "median": middle,
        "range": (max(values) - min(values)) / middle if middle else 0.0,
        "iqr": 0.0,
    }
    if len(values) >= 2 and middle:
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary["iqr"] = (q3 - q1) / middle
    return summary


def repeat(args: argparse.Namespace) -> int:
    """``--repeat N``: N runs with seeds ``seed .. seed+N-1`` (the
    driver's protocol), then every metric's spread against its bound."""
    runs = []
    for offset in range(args.repeat):
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed + offset), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + (["--smoke"] if args.smoke else [])
        started = time.perf_counter()
        child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        try:
            output, _ = child.communicate()
        finally:  # interrupted: let the run stop its own processes
            if child.poll() is None:
                child.terminate()
                child.wait()
        if child.returncode != 0:
            return child.returncode
        run = json.loads(output.splitlines()[-1])
        run["seed"] = args.seed + offset
        run["wall_s"] = time.perf_counter() - started
        runs.append(run)
        print(
            f"seed {run['seed']}: {run['wall_s']:.1f}s wall, "
            f"{run['failed']}/{run['attempted']} ops failed",
            file=sys.stderr,
        )
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    table = {}
    print(f"{'metric':<28}{'median':>12}{'range':>9}{'iqr':>9}{'bound':>8}")
    for name in runs[0]["metrics"]:
        summary = spread([run["metrics"][name]["value"] for run in runs])
        summary["bound"] = bounds.get(name)
        table[name] = summary
        bound = f"{summary['bound']:.2f}" if summary["bound"] else "-"
        print(
            f"{name:<28}{summary['median']:>12.4f}{summary['range']:>9.3f}"
            f"{summary['iqr']:>9.3f}{bound:>8}"
        )
    out = HERE / "out" / f"repeat-{args.workload}-seed{args.seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({
        "workload": args.workload, "environment": fingerprint(),
        "runs": runs, "summary": table,
    }, indent=1) + "\n")
    print(json.dumps({"workload": args.workload, "summary": table}))
    return 0 if all(run["failed"] == 0 for run in runs) else 1


# -- entry point --------------------------------------------------------


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=float(SPEC["run_seconds"]),
        help="measured seconds; pair counts scale up with it, never "
        "below their floors",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: the separate traced run (per-layer metrics)",
    )
    parser.add_argument("--repeat", type=int, default=0, metavar="N")
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny world and pair counts (harness test only)",
    )
    parser.add_argument("--memory-child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def exit_on_sigterm() -> None:
    """Killed politely, still run the ``finally`` blocks that stop the
    fleet worker and the reference server.  Only in this process: a
    forked pool worker inherits the handler, and raising inside one
    while its pool terminates it deadlocks the pool."""
    owner = os.getpid()

    def handler(signum, frame) -> None:
        if os.getpid() == owner:
            sys.exit(143)
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)

    signal.signal(signal.SIGTERM, handler)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    exit_on_sigterm()
    # A first-run compile of the C kernel must land in the checkout and
    # outside every metric: the cache is the benchmark's own directory
    # and the provider is resolved here, before anything is timed.
    os.environ["REPRO_KERNEL_CACHE"] = str(HERE / ".cache" / "kernels")
    native_provider()
    if args.memory_child:
        memory_child(args)
        return 0
    if args.repeat:
        return repeat(args)
    environment = fingerprint()  # before the run pins this process
    started = time.perf_counter()
    if args.trace:
        result = run_traced(args)
    else:
        result = run_end_to_end(args)
    environment["wall_s"] = round(time.perf_counter() - started, 1)
    print(f"# {args.workload} seed={args.seed} {json.dumps(environment)}")
    for name, metric in result["metrics"].items():
        print(f"# {name:<40}{metric['value']:>14.4f} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # The guard matters: the fleet spawns its worker, and spawn
    # re-imports this file in the child.
    sys.exit(main())

"""The SO_REUSEPORT daemon fleet: N serving processes, one port.

A single asyncio daemon saturates one core; the fleet scales the query
path across cores the only way CPython scales CPU-bound work — with
**processes**.  Every worker runs a full :class:`ServiceDaemon` bound
to the *same* ``host:port`` with ``SO_REUSEPORT``, so the kernel
load-balances accepted connections across workers and clients need no
balancer in front.

The workers share one snapshot *artifact*, not one heap: the
supervisor persists each published snapshot as a flowpack
``snapshot.fpk`` (atomic ``os.replace``), bumps a version sentinel
file and wakes its workers; each worker reads the sentinel and re-opens
the file through
:meth:`MetaTelescopeService.publish_path` — zero-copy views of the
mapped file, so N processes serve one page-cache copy instead of N
materialised heap copies, and the file's stamped version is adopted
verbatim (every worker answers with the same ``snapshot_version``).

Publish protocol (all steps atomic or monotone, in this order)::

    1. supervisor stamps the next version (its own SnapshotHandle)
    2. write <root>/snapshot.fpk.tmp, os.replace -> <root>/snapshot.fpk
    3. write <root>/SERVING.json.tmp {version, day}, os.replace
    4. write one byte to every worker's wake pipe (never blocks)
    5. (optional) append the delta to the SnapshotDeltaStore

The two files are the whole protocol; the wake byte carries nothing and
only decides *when* a worker looks at them.  A woken worker reads the
sentinel at once, so adoption overlaps step 5; every worker also reads
it each ``poll_interval`` regardless, which is what serves an external
republisher (who speaks only steps 2–3) and a wake-up that was missed
(a full pipe).  The supervisor holds the only write end of each pipe:
a worker that reads EOF has lost its supervisor — however that ended —
and drains and exits instead of squatting on the port.

A worker that reads the sentinel mid-publish sees either the old or
the new version — never a torn file (``os.replace`` is atomic, and a
worker holding the *old* mmap keeps serving it consistently; the
replaced inode lives until unmapped).  If the snapshot file is already
newer than the sentinel says, :meth:`SnapshotHandle.adopt`'s
monotonicity makes the race harmless.  A worker that cannot open the
artifact (an outside writer left it truncated) keeps serving the
version it holds, reports the error once — stderr and an ``error``
field in its ``worker-N.json`` — and tries again on the next wake or
tick; one booting onto such a file comes up listening and not ready.

The supervisor also restarts workers that died (``ensure_alive``) and
drains them gracefully on shutdown: SIGTERM → stop accepting → finish
in-flight queries → exit.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import socket
import sys
import threading
import time
from dataclasses import dataclass
from multiprocessing.connection import Connection
from pathlib import Path
from typing import Any

from repro.core.snapshot import ClassificationSnapshot
from repro.service.daemon import (
    MetaTelescopeService,
    QueryBudget,
    ServiceDaemon,
)
from repro.service.handle import SnapshotHandle

#: The served artifact and its version sentinel, inside the fleet root.
SNAPSHOT_FILE = "snapshot.fpk"
SENTINEL_FILE = "SERVING.json"
#: Seconds :meth:`FleetSupervisor.stop` waits before killing a worker.
_STOP_TIMEOUT = 10.0


def _atomic_json(path: Path, payload: dict[str, Any]) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(payload))
    os.replace(tmp, path)


def read_sentinel(root: str | Path) -> dict[str, Any] | None:
    """The fleet's current ``{version, day}`` sentinel, if published."""
    path = Path(root) / SENTINEL_FILE
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None  # not yet published, or caught mid-replace (retry)


def _worker_ready_path(root: Path, index: int) -> Path:
    return root / f"worker-{index}.json"


def free_reuseport(host: str) -> int:
    """An ephemeral port usable by several SO_REUSEPORT binders."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        probe.bind((host, 0))
        return probe.getsockname()[1]


def _worker_main(
    root: str,
    index: int,
    host: str,
    port: int,
    max_results: int,
    max_inflight: int,
    poll_interval: float,
    verify: bool,
    wake_pipe: Connection,
) -> None:
    """One fleet worker: daemon + sentinel reader, until SIGTERM or the
    supervisor's end of ``wake_pipe`` closes."""
    import asyncio

    root_path = Path(root)
    service = MetaTelescopeService(
        budget=QueryBudget(max_results=max_results),
        max_inflight=max_inflight,
    )
    daemon = ServiceDaemon(service, host=host, port=port, reuse_port=True)

    error: str | None = None

    def report() -> None:
        state = {
            "pid": os.getpid(),
            "port": daemon.port,
            "version": service.handle.version(),
        }
        if error is not None:
            state["error"] = error
        _atomic_json(_worker_ready_path(root_path, index), state)

    def refresh() -> bool:
        """Adopt what the sentinel names; true when ``report()`` has
        something new to say (a version, an error, or its end)."""
        nonlocal error
        before, failed = service.handle.version(), None
        sentinel = read_sentinel(root_path)
        if sentinel and sentinel["version"] > before:
            try:
                service.publish_path(root_path / SNAPSHOT_FILE, verify=verify)
            except (OSError, ValueError) as damage:  # FlowpackError included
                failed = f"{type(damage).__name__}: {damage}"
                if failed != error:
                    print(
                        f"fleet worker {index}: still serving v{before}, "
                        f"cannot open v{sentinel['version']}: {failed}",
                        file=sys.stderr, flush=True,
                    )
        changed = failed != error or service.handle.version() != before
        error = failed
        return changed

    async def main() -> None:
        stopping = asyncio.Event()
        wake = asyncio.Event()  # a signal, a wake byte, or supervisor EOF
        loop = asyncio.get_running_loop()

        def stop() -> None:
            stopping.set()
            wake.set()

        def on_wake_pipe() -> None:
            if os.read(wake_pipe.fileno(), 4096):
                wake.set()
            else:  # every write end is closed: the supervisor is gone
                loop.remove_reader(wake_pipe.fileno())
                stop()

        loop.add_signal_handler(signal.SIGTERM, stop)
        loop.add_signal_handler(signal.SIGINT, stop)
        loop.add_reader(wake_pipe.fileno(), on_wake_pipe)
        refresh()  # serve immediately when a snapshot pre-exists
        await daemon.start()
        report()
        while not stopping.is_set():
            try:
                await asyncio.wait_for(wake.wait(), timeout=poll_interval)
            except asyncio.TimeoutError:
                pass
            wake.clear()
            if refresh():
                report()
        await daemon.drain(timeout=5.0)

    asyncio.run(main())


@dataclass
class FleetWorker:
    """Supervisor-side record of one worker process."""

    index: int
    process: multiprocessing.process.BaseProcess
    wake_pipe: Connection  # write end; the worker holds the only reader
    restarts: int = 0

    def wake(self) -> None:
        """Tell the worker to read the sentinel now.  A full pipe (the
        worker is wedged, and has wake-ups waiting) or a broken one (it
        is dead) is not the publisher's problem: the poll covers the
        first and ``ensure_alive`` the second."""
        try:
            os.write(self.wake_pipe.fileno(), b"\0")
        except OSError:
            pass


class FleetSupervisor:
    """Runs, feeds, restarts and drains an SO_REUSEPORT daemon fleet.

    The supervisor is the only *writer*: it stamps versions (through
    its own :class:`SnapshotHandle`, so ``publish`` works exactly like
    the single-process service's), persists the artifact, and bumps
    the sentinel.  Workers are pure readers of the fleet root.

    ``delta_store`` (a
    :class:`~repro.core.snapshot_store.SnapshotDeltaStore`) makes each
    publish also append its delta — the cheap year-scale archive.
    """

    def __init__(
        self,
        root: str | Path,
        processes: int,
        host: str = "127.0.0.1",
        port: int = 0,
        max_results: int = 1000,
        max_inflight: int = 64,
        poll_interval: float = 0.05,
        verify: bool = False,
        delta_store=None,
        history: int = 16,
        pfx2as=None,
        geodb=None,
    ) -> None:
        if processes < 1:
            raise ValueError("a fleet needs at least one process")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.processes = processes
        self.host = host
        self.port = port
        self.max_results = max_results
        self.max_inflight = max_inflight
        self.poll_interval = poll_interval
        self.verify = verify
        self.delta_store = delta_store
        self.pfx2as = pfx2as
        self.geodb = geodb
        #: Kept for :class:`~repro.service.daemon.BackgroundFolder`
        #: compatibility (engine health is a producer concern; fleet
        #: workers serve static artifacts and report serving health).
        self.health_provider = None
        self.handle = SnapshotHandle(history=history)
        self.workers: list[FleetWorker] = []
        # publish() may run on a folder thread while the serve loop
        # respawns: a wake must never race the close of the pipe it
        # writes to (the fd number could already be someone else's).
        self._wake_lock = threading.Lock()
        # spawn, not fork: workers re-import and own their event loop —
        # forking a threaded/asyncio parent is where the bodies are.
        self._mp = multiprocessing.get_context("spawn")

    # -- publishing ----------------------------------------------------

    def publish(
        self, snapshot: ClassificationSnapshot
    ) -> ClassificationSnapshot:
        """Enrich, stamp, persist, sentinel-bump (and delta-append) one
        snapshot.  Safe before or after :meth:`start`: running workers
        are woken as soon as the sentinel is in place and adopt while
        the delta is appended, later ones read the sentinel at boot
        (``poll_interval`` bounds only a missed wake-up).  Enrichment
        (AS/geo) happens here, once, on the supervisor — workers
        re-open the finished artifact and never pay for it."""
        stamped = self.handle.publish(
            snapshot.enrich(pfx2as=self.pfx2as, geodb=self.geodb)
        )
        tmp = self.root / (SNAPSHOT_FILE + ".tmp")
        stamped.save(tmp)
        os.replace(tmp, self.root / SNAPSHOT_FILE)
        _atomic_json(
            self.root / SENTINEL_FILE,
            {"version": stamped.version, "day": stamped.day},
        )
        with self._wake_lock:
            for worker in self.workers:
                worker.wake()
        if self.delta_store is not None:
            self.delta_store.append(stamped)
        return stamped

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Resolve the shared port and boot every worker."""
        if self.workers:
            raise RuntimeError("fleet already started")
        if self.port == 0:
            self.port = free_reuseport(self.host)
        for index in range(self.processes):
            self.workers.append(self._spawn(index))

    def _spawn(self, index: int, restarts: int = 0) -> FleetWorker:
        ready = _worker_ready_path(self.root, index)
        ready.unlink(missing_ok=True)
        reader, writer = self._mp.Pipe(duplex=False)
        os.set_blocking(writer.fileno(), False)
        process = self._mp.Process(
            target=_worker_main,
            args=(
                str(self.root), index, self.host, self.port,
                self.max_results, self.max_inflight, self.poll_interval,
                self.verify, reader,
            ),
            name=f"meta-telescope-worker-{index}",
            daemon=True,
        )
        process.start()
        reader.close()  # the worker's copy is the only one: EPIPE if it dies
        return FleetWorker(
            index=index, process=process, wake_pipe=writer, restarts=restarts
        )

    def worker_states(self) -> list[dict[str, Any] | None]:
        """Each worker's last self-reported ``{pid, port, version}``
        (plus ``error`` while it cannot open the published artifact)."""
        states = []
        for worker in self.workers:
            path = _worker_ready_path(self.root, worker.index)
            try:
                states.append(json.loads(path.read_text()))
            except (OSError, json.JSONDecodeError):
                states.append(None)
        return states

    def wait_ready(self, timeout: float = 30.0) -> None:
        """Block until every worker is listening (ready file written)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if all(state is not None for state in self.worker_states()):
                return
            if any(
                not worker.process.is_alive() for worker in self.workers
            ):
                raise RuntimeError("a fleet worker died during boot")
            time.sleep(0.01)
        raise TimeoutError(f"fleet not ready within {timeout}s")

    def wait_version(self, version: int, timeout: float = 30.0) -> None:
        """Block until every worker serves at least ``version``."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            states = self.worker_states()
            if all(
                state is not None and state["version"] >= version
                for state in states
            ):
                return
            time.sleep(0.01)
        raise TimeoutError(
            f"fleet did not converge to v{version} within {timeout}s: "
            f"{self.worker_states()}"
        )

    def ensure_alive(self) -> int:
        """Restart any dead workers; returns how many were restarted.

        Call periodically (the ``serve`` loop does) — a replacement
        worker rebinds the same SO_REUSEPORT address and re-serves the
        current sentinel version, so capacity recovers without any
        client-visible reconfiguration."""
        restarted = 0
        for slot, worker in enumerate(self.workers):
            if not worker.process.is_alive():
                with self._wake_lock:
                    worker.wake_pipe.close()
                    self.workers[slot] = self._spawn(
                        worker.index, restarts=worker.restarts + 1
                    )
                restarted += 1
        return restarted

    def stop(self) -> None:
        """Graceful drain: SIGTERM every worker, then join (kill
        stragglers past :data:`_STOP_TIMEOUT` seconds)."""
        for worker in self.workers:
            if worker.process.is_alive():
                worker.process.terminate()  # SIGTERM -> daemon.drain()
        deadline = time.monotonic() + _STOP_TIMEOUT
        for worker in self.workers:
            worker.process.join(max(0.1, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(5.0)
        with self._wake_lock:
            for worker in self.workers:
                worker.wake_pipe.close()
            self.workers = []

    def __enter__(self) -> "FleetSupervisor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

"""The SO_REUSEPORT fleet: shared artifact, convergence, restarts.

One module-scoped two-worker fleet serves every test here (spawning
interpreters is the expensive part).  The assertions cover the scale-out
contract: all workers answer with the supervisor's stamped version,
republishes converge within the poll interval, answers are byte-
identical across connections (and therefore across workers), dead
workers come back, and shutdown drains cleanly.

A second module-scoped fleet polls every 30 s, so whatever it adopts
inside a test it adopted because ``publish`` woke it: those tests pin
the wake mechanism, not a timing.
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import itertools
import json
import os
import signal
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.snapshot import VERDICT_DARK, VERDICT_GRAY
from repro.core.snapshot_store import SnapshotDeltaStore
from repro.net.ipv4 import block_to_prefix
from repro.service import FleetSupervisor
from repro.service.fleet import (
    SENTINEL_FILE,
    SNAPSHOT_FILE,
    free_reuseport,
    read_sentinel,
)
from tests.service.test_atomic_swap import stamped_snapshot


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    root = tmp_path_factory.mktemp("fleet")
    supervisor = FleetSupervisor(
        root / "serving",
        processes=2,
        poll_interval=0.02,
        delta_store=SnapshotDeltaStore(root / "archive"),
    )
    supervisor.publish(stamped_snapshot(1))
    supervisor.start()
    supervisor.wait_ready(60)
    yield supervisor
    supervisor.stop()


def get(url: str, headers: dict | None = None):
    request = urllib.request.Request(url, headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=10) as reply:
            return reply.status, dict(reply.headers), reply.read()
    except urllib.error.HTTPError as reply:
        return reply.code, dict(reply.headers), reply.read()


def test_all_workers_ready_on_one_port(fleet):
    states = fleet.worker_states()
    assert len(states) == 2
    assert {state["port"] for state in states} == {fleet.port}
    assert len({state["pid"] for state in states}) == 2
    assert read_sentinel(fleet.root)["version"] == fleet.handle.version()


def test_queries_serve_the_stamped_version(fleet):
    version = fleet.handle.version()
    status, headers, body = get(fleet.base_url + "/v1/point?block=1")
    answer = json.loads(body)
    assert status == 200
    assert answer["dark"] is True
    assert answer["snapshot_version"] == version
    assert headers["ETag"] == f'"v{version}"'
    status, _, body = get(
        fleet.base_url + "/v1/point?block=1",
        headers={"If-None-Match": f'"v{version}"'},
    )
    assert status == 304 and body == b""


def test_republish_converges_and_archives(fleet):
    before = fleet.handle.version()
    stamped = fleet.publish(stamped_snapshot(before + 1))
    assert stamped.version == before + 1
    fleet.wait_version(stamped.version, timeout=30)
    status, _, body = get(
        fleet.base_url + f"/v1/point?block={stamped.day}"
    )
    assert status == 200
    assert json.loads(body)["snapshot_version"] == stamped.version
    # Every publish also landed in the delta archive, bit-identically.
    assert fleet.delta_store.versions()[-1] == stamped.version
    assert fleet.delta_store.load(stamped.version).identical_to(stamped)


def test_answers_are_byte_identical_across_connections(fleet):
    fleet.wait_version(fleet.handle.version(), timeout=30)
    script = ["/v1/point?block=2", "/v1/range?start=1&end=40",
              "/v1/snapshot"]
    digests = set()
    for _ in range(12):  # fresh connection each time: both workers answer
        digest = hashlib.sha256()
        for target in script:
            status, _, body = get(fleet.base_url + target)
            assert status == 200
            digest.update(body)
        digests.add(digest.hexdigest())
    assert len(digests) == 1


def test_no_torn_read_across_supervisor_and_external_republish(fleet):
    """Readers hammer the fleet while the version moves twice: once by
    ``fleet.publish`` and once by an outside writer speaking only the
    file protocol (``snapshot.fpk`` replaced, then ``SERVING.json``).

    The three versions share one block universe and differ in which
    blocks are dark, so an answer is right for exactly one version — a
    worker that mixes two snapshots, or stamps one version onto
    another's rows, matches none.
    """
    universe = stamped_snapshot(1000, size=96)
    lo, hi = int(universe.blocks[0]), int(universe.blocks[-1])
    probes = list(range(lo - 2, hi + 3))  # two absent blocks either side

    def variant(modulus: int, version: int):
        gray = (universe.blocks % modulus) == 0
        verdicts = np.where(gray, VERDICT_GRAY, VERDICT_DARK).astype(np.uint8)
        return dataclasses.replace(
            universe, verdicts=verdicts, version=version
        )

    # Truth is keyed by the version each variant *will* carry: readers
    # may be answered from a publish before publish() has returned.
    v1 = fleet.handle.version() + 1
    variants = [variant(2, v1), variant(3, v1 + 1), variant(5, v1 + 2)]
    truth = {v.version: set(v.dark_blocks.tolist()) for v in variants}

    def prefixes(blocks: set[int]) -> set[str]:
        return {str(block_to_prefix(block)) for block in blocks}

    def check(kind: str, body: dict, block: int) -> None:
        # KeyError here: an answer from a version nobody published
        dark = truth[body["snapshot_version"]]
        if kind == "point":
            assert body["dark"] == (block in dark), (block, body)
        elif kind == "range":
            assert body["total"] == len(universe), body
            rows = {row["block"]: row["dark"] for row in body["rows"]}
            assert rows == {b: b in dark for b in range(lo, hi + 1)}, body
        elif body["base_retained"]:
            base = truth[body["base_version"]]
            assert set(body["added_dark"]) == prefixes(dark - base), body
            assert set(body["removed_dark"]) == prefixes(base - dark), body

    stop = threading.Event()
    failures: list[BaseException] = []
    # per reader: version -> validated answers
    seen = [collections.Counter() for _ in range(4)]

    def reader(slot: int) -> None:
        rng = np.random.default_rng(slot)
        mix = itertools.cycle(["point"] * 6 + ["range", "diff"])
        try:
            while not stop.is_set():
                kind, block = next(mix), int(rng.choice(probes))
                target = {
                    "point": f"/v1/point?block={block}",
                    "range": f"/v1/range?start={lo}&end={hi}",
                    "diff": f"/v1/diff?since={v1}",
                }[kind]
                status, _, raw = get(fleet.base_url + target)
                assert status == 200, (target, status, raw)
                body = json.loads(raw)
                check(kind, body, block)
                seen[slot][body["snapshot_version"]] += 1
        except BaseException as error:  # a transport error is a failure too
            failures.append(error)

    threads = [
        threading.Thread(target=reader, args=(slot,), daemon=True)
        for slot in range(len(seen))
    ]

    def every_reader_answered_from(version: int, answers: int = 16) -> None:
        fleet.wait_version(version, timeout=30)
        deadline = time.monotonic() + 30
        while any(counts[version] < answers for counts in seen):
            assert not failures, failures[0]
            assert time.monotonic() < deadline, (version, seen)
            time.sleep(0.005)

    assert fleet.publish(variants[0]).version == v1
    fleet.wait_version(v1, timeout=30)
    for thread in threads:
        thread.start()
    try:
        every_reader_answered_from(v1)
        # (a) the supervisor republishes under load
        assert fleet.publish(variants[1]).version == v1 + 1
        every_reader_answered_from(v1 + 1)
        # (b) an outside writer republishes through the files alone
        staged = fleet.root / (SNAPSHOT_FILE + ".new")
        variants[2].save(staged)
        os.replace(staged, fleet.root / SNAPSHOT_FILE)
        staged = fleet.root / (SENTINEL_FILE + ".new")
        staged.write_text(
            json.dumps({"version": v1 + 2, "day": variants[2].day})
        )
        os.replace(staged, fleet.root / SENTINEL_FILE)
        every_reader_answered_from(v1 + 2)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
    assert not failures, failures[0]
    assert not any(thread.is_alive() for thread in threads)
    # The supervisor did not write v1 + 2; keep its counter in step with
    # what the fleet serves, for whoever publishes next.
    fleet.handle.adopt(variants[2])

    digests = set()
    for _ in range(12):  # fresh connection each time: both workers answer
        digest = hashlib.sha256()
        for block in probes[::6]:
            status, _, raw = get(fleet.base_url + f"/v1/point?block={block}")
            assert status == 200
            body = json.loads(raw)
            assert body["snapshot_version"] == v1 + 2
            check("point", body, block)
            digest.update(raw)
        digests.add(digest.hexdigest())
    assert len(digests) == 1


def test_dead_worker_is_restarted_with_current_version(fleet):
    victim = fleet.workers[0]
    victim.process.kill()
    victim.process.join(10)
    assert fleet.ensure_alive() == 1
    assert fleet.workers[0].restarts == victim.restarts + 1
    fleet.wait_ready(60)
    fleet.wait_version(fleet.handle.version(), timeout=30)
    status, _, body = get(fleet.base_url + "/v1/snapshot")
    assert status == 200
    assert json.loads(body)["version"] == fleet.handle.version()
    assert fleet.ensure_alive() == 0  # everyone's alive again


@pytest.fixture(scope="module")
def woken_fleet(tmp_path_factory):
    """Two workers whose timer never fires within a test."""
    supervisor = FleetSupervisor(
        tmp_path_factory.mktemp("woken"), processes=2, poll_interval=30
    )
    supervisor.publish(stamped_snapshot(1))  # before start(): read at boot
    supervisor.start()
    supervisor.wait_ready(60)
    yield supervisor
    supervisor.stop()


def publish_next(supervisor: FleetSupervisor) -> int:
    return supervisor.publish(
        stamped_snapshot(supervisor.handle.version() + 1)
    ).version


def test_publish_before_start_is_served_at_boot(woken_fleet):
    assert [s["version"] for s in woken_fleet.worker_states()] == [1, 1]


def test_publish_is_answered_without_waiting_for_the_timer(woken_fleet):
    started = time.monotonic()
    version = publish_next(woken_fleet)
    woken_fleet.wait_version(version, timeout=5)
    for _ in range(8):  # fresh connection each time: both workers answer
        status, _, body = get(woken_fleet.base_url + "/v1/snapshot")
        assert status == 200
        assert json.loads(body)["snapshot_version"] == version
    assert time.monotonic() - started < 1.0  # poll_interval is 30


def test_rows_rendered_under_one_version_are_not_served_under_the_next(
    woken_fleet,
):
    """A worker memoises each row's text for the version it serves; the
    moment it adopts the next one, a range answers with the new rows."""

    def answers(version: int) -> None:
        for _ in range(8):  # fresh connection each time: both workers answer
            status, _, body = get(woken_fleet.base_url + "/v1/range?start=0&end=400")
            answer = json.loads(body)
            assert status == 200 and answer["snapshot_version"] == version
            # stamped_snapshot(version): blocks version.., since_day version
            assert [(row["block"], row["since_day"]) for row in answer["rows"]] == [
                (version + offset, version) for offset in range(64)
            ]

    answers(woken_fleet.handle.version())
    version = publish_next(woken_fleet)
    woken_fleet.wait_version(version, timeout=5)
    answers(version)


def test_respawned_worker_gets_a_wake_channel_of_its_own(woken_fleet):
    """Publishes keep coming from another thread (``serve``'s folder
    does that) while a worker dies and is replaced: none may raise,
    whether it meets a broken pipe, a closed one or a booting worker."""
    victim = woken_fleet.workers[0]
    done = threading.Event()
    failures: list[BaseException] = []

    def publisher() -> None:
        try:
            while not done.is_set():
                publish_next(woken_fleet)
        except BaseException as error:
            failures.append(error)

    thread = threading.Thread(target=publisher, daemon=True)
    thread.start()
    try:
        victim.process.kill()
        victim.process.join(10)
        time.sleep(0.05)  # publishes to a dead reader: EPIPE
        assert woken_fleet.ensure_alive() == 1
        assert victim.wake_pipe.closed
        woken_fleet.wait_ready(60)
    finally:
        done.set()
        thread.join(timeout=30)
    assert not thread.is_alive() and not failures, failures
    # Whatever the respawn read at boot, the next wake reaches both.
    woken_fleet.wait_version(publish_next(woken_fleet), timeout=5)


def test_publish_never_waits_for_a_wedged_worker(woken_fleet):
    wedged, healthy = woken_fleet.workers
    os.kill(wedged.process.pid, signal.SIGSTOP)
    try:
        with pytest.raises(BlockingIOError):
            while True:
                os.write(wedged.wake_pipe.fileno(), b"\0" * 4096)
        started = time.monotonic()
        version = publish_next(woken_fleet)
        assert time.monotonic() - started < 1.0
        deadline = time.monotonic() + 5
        while woken_fleet.worker_states()[healthy.index]["version"] < version:
            assert time.monotonic() < deadline
            time.sleep(0.01)
    finally:
        os.kill(wedged.process.pid, signal.SIGCONT)
    woken_fleet.wait_version(version, timeout=5)  # the backlog is a wake too


def test_unreadable_artifact_keeps_the_last_good_version_serving(
    tmp_path, capfd
):
    fleet = FleetSupervisor(tmp_path, processes=1, poll_interval=0.02)
    with fleet:
        fleet.publish(stamped_snapshot(1))
        fleet.start()
        fleet.wait_ready(60)
        # An outside writer replaces the artifact with a third of one
        # and bumps the sentinel.
        artifact = fleet.root / SNAPSHOT_FILE
        staged = fleet.root / (SNAPSHOT_FILE + ".new")
        whole = artifact.read_bytes()
        staged.write_bytes(whole[: len(whole) // 3])
        os.replace(staged, artifact)
        staged = fleet.root / (SENTINEL_FILE + ".new")
        staged.write_text(json.dumps({"version": 2, "day": 2}))
        os.replace(staged, fleet.root / SENTINEL_FILE)

        def reported_error() -> str:
            deadline = time.monotonic() + 10
            while not (fleet.worker_states()[0] or {}).get("error"):
                assert fleet.ensure_alive() == 0, "the worker died of it"
                assert time.monotonic() < deadline
                time.sleep(0.01)
            return fleet.worker_states()[0]["error"]

        assert reported_error().startswith("FlowpackError: ")
        status, _, body = get(fleet.base_url + "/v1/point?block=1")
        assert status == 200 and json.loads(body)["snapshot_version"] == 1

        # A worker that boots onto the damage listens, and says not ready.
        fleet.workers[0].process.kill()
        fleet.workers[0].process.join(10)
        assert fleet.ensure_alive() == 1
        fleet.wait_ready(60)
        assert reported_error().startswith("FlowpackError: ")
        status, _, body = get(fleet.base_url + "/healthz")
        assert status == 503 and json.loads(body)["serving"] is False

        # Keep the supervisor's counter in step with the sentinel.
        fleet.handle.adopt(
            dataclasses.replace(stamped_snapshot(2), version=2)
        )
        assert fleet.publish(stamped_snapshot(3)).version == 3
        fleet.wait_version(3, timeout=10)
        assert "error" not in fleet.worker_states()[0]
        status, _, body = get(fleet.base_url + "/v1/point?block=3")
        assert status == 200 and json.loads(body)["snapshot_version"] == 3
    # Said once per worker life, not once per 20 ms retry.
    assert capfd.readouterr().err.count("cannot open v2: FlowpackError") == 2


def test_stop_drains_every_worker(tmp_path):
    supervisor = FleetSupervisor(
        tmp_path, processes=2, poll_interval=0.02
    )
    supervisor.publish(stamped_snapshot(1))
    supervisor.start()
    supervisor.wait_ready(60)
    workers = list(supervisor.workers)
    supervisor.stop()
    assert supervisor.workers == []
    assert all(not worker.process.is_alive() for worker in workers)
    assert all(worker.process.exitcode == 0 for worker in workers)


def test_free_reuseport_is_bindable_twice():
    port = free_reuseport("127.0.0.1")
    assert 0 < port < 65536


def test_fleet_requires_at_least_one_process(tmp_path):
    with pytest.raises(ValueError):
        FleetSupervisor(tmp_path, processes=0)

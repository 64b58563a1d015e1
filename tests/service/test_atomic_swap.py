"""Publish is atomic: concurrent readers never see a torn snapshot.

Each published snapshot here is wholly derived from its stamp — every
column encodes the stamp — so a reader can detect *any* mix of two
publishes by cross-checking columns against each other.  Readers hammer
the handle (and the query service) while a writer publishes as fast as
it can; one inconsistent observation fails the test.
"""

from __future__ import annotations

import json
import threading

import numpy as np

from repro.core.snapshot import ClassificationSnapshot, VERDICT_DARK
from repro.service import MetaTelescopeService, ServiceDaemon, SnapshotHandle


def stamped_snapshot(stamp: int, size: int = 64) -> ClassificationSnapshot:
    """A snapshot whose every column is a pure function of ``stamp``."""
    blocks = np.arange(stamp, stamp + size, dtype=np.int64)
    return ClassificationSnapshot(
        day=stamp,
        blocks=blocks,
        verdicts=np.full(size, VERDICT_DARK, dtype=np.uint8),
        confidence=np.full(size, 1.0 / (1 + stamp % 7)),
        since_day=np.full(size, stamp, dtype=np.int32),
        asns=np.full(size, stamp % 1000, dtype=np.int32),
        countries=np.full(size, b"%02d" % (stamp % 100), dtype="S2"),
        provenance={"stamp": stamp},
    )


def check_consistent(snapshot: ClassificationSnapshot) -> None:
    stamp = snapshot.provenance["stamp"]
    assert snapshot.day == stamp
    assert snapshot.blocks[0] == stamp
    assert (snapshot.since_day == stamp).all()
    assert (snapshot.asns == stamp % 1000).all()
    assert (snapshot.countries == b"%02d" % (stamp % 100)).all()
    assert snapshot.lookup(stamp).since_day == stamp


def test_readers_never_observe_mixed_state():
    handle = SnapshotHandle(history=4)
    handle.publish(stamped_snapshot(0))
    publishes = 300
    stop = threading.Event()
    failures: list[BaseException] = []

    def reader() -> None:
        last_version = 0
        try:
            while not stop.is_set():
                snapshot = handle.current()
                check_consistent(snapshot)
                # Versions move forward, never backwards.
                assert snapshot.version >= last_version
                last_version = snapshot.version
        except BaseException as error:  # propagated to the main thread
            failures.append(error)

    readers = [threading.Thread(target=reader) for _ in range(4)]
    for thread in readers:
        thread.start()
    try:
        for stamp in range(1, publishes + 1):
            handle.publish(stamped_snapshot(stamp))
    finally:
        stop.set()
        for thread in readers:
            thread.join(timeout=10)
    assert not failures, failures[0]
    assert handle.version() == publishes + 1
    check_consistent(handle.current())


def test_service_queries_are_single_snapshot():
    """Every service answer is internally from ONE snapshot version."""
    service = MetaTelescopeService()
    service.publish(stamped_snapshot(0))
    daemon = ServiceDaemon(service)  # its text answers; no socket
    stop = threading.Event()
    failures: list[BaseException] = []

    def reader() -> None:
        try:
            while not stop.is_set():
                status, body, _ = daemon._dispatch("GET", "/v1/snapshot")
                assert status == 200, body
                info = json.loads(body)
                stamp = info["provenance"]["stamp"]
                # day and provenance came from the same publish.
                assert info["day"] == stamp
                answer = service.point(str(stamp))
                # The point answer is against one coherent snapshot:
                # whichever version served it, its fields must agree
                # (the writer may have raced past this block, in which
                # case an honest "unknown" is the consistent answer).
                if answer["verdict"] != "unknown":
                    assert answer["since_day"] == answer["snapshot_day"]
        except BaseException as error:
            failures.append(error)

    readers = [threading.Thread(target=reader) for _ in range(3)]
    for thread in readers:
        thread.start()
    try:
        for stamp in range(1, 200):
            service.publish(stamped_snapshot(stamp))
    finally:
        stop.set()
        for thread in readers:
            thread.join(timeout=10)
    assert not failures, failures[0]
    assert service.publishes == 200


def test_diff_against_retained_history_under_churn():
    handle = SnapshotHandle(history=8)
    for stamp in range(10):
        handle.publish(stamped_snapshot(stamp))
    current = handle.current()
    base = handle.at_version(current.version - 3)
    diff = current.diff(base)
    assert diff.base_version == base.version
    assert diff.version == current.version
    # Blocks shift by one per stamp: 3 added, 3 removed.
    assert len(diff.added_dark) == 3 and len(diff.removed_dark) == 3
    assert handle.at_version(1) is None  # evicted by maxlen=8

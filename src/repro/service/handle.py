"""The atomic-swap snapshot handle.

The serving contract is: **readers never lock, never block, and never
observe a partial snapshot**.  The mechanism is the simplest one
CPython offers — a single attribute holding a whole immutable
:class:`~repro.core.snapshot.ClassificationSnapshot`.  Attribute loads
and stores are atomic under the interpreter, snapshots are frozen
dataclasses over read-only arrays, and a publish builds the *entire*
new snapshot before the one-instruction swap.  A reader that grabbed
the old snapshot keeps a consistent view for as long as it holds the
reference; there is no torn state to observe.

Writers (the background folder, the CLI) serialise among themselves on
a small lock — publishing is rare and cheap compared to folding — and
each publish stamps a monotonically increasing ``version`` into the
snapshot via :func:`dataclasses.replace`.  Recent snapshots are kept
in a bounded deque so diff feeds ("what changed since version N") can
be answered against any still-retained base.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import deque

from repro.core.snapshot import ClassificationSnapshot


class SnapshotHandle:
    """Atomic publish/read handle over immutable snapshots.

    ``history`` bounds how many published snapshots stay reachable for
    diff queries; the current snapshot is always retained.
    """

    def __init__(self, history: int = 16) -> None:
        if history < 1:
            raise ValueError("history must be >= 1")
        self._current: ClassificationSnapshot | None = None
        self._history: deque[ClassificationSnapshot] = deque(maxlen=history)
        self._version = 0
        self._publish_lock = threading.Lock()

    # -- the read path (lock-free) -------------------------------------

    def current(self) -> ClassificationSnapshot | None:
        """The currently served snapshot (None before the first
        publish).  A single atomic attribute read — callers must hold
        the returned reference and query *it*, not re-call per field."""
        return self._current

    def version(self) -> int:
        """Version of the current snapshot (0 before the first publish)."""
        snapshot = self._current
        return snapshot.version if snapshot is not None else 0

    # -- the write path ------------------------------------------------

    def publish(
        self, snapshot: ClassificationSnapshot
    ) -> ClassificationSnapshot:
        """Stamp the next version onto ``snapshot`` and swap it in.

        Returns the stamped snapshot actually now being served.  The
        swap itself is one attribute store; everything else happens
        before it, on the writer's side only.
        """
        with self._publish_lock:
            self._version += 1
            stamped = dataclasses.replace(snapshot, version=self._version)
            self._history.append(stamped)
            self._current = stamped  # the atomic swap
            return stamped

    def adopt(self, snapshot: ClassificationSnapshot) -> ClassificationSnapshot:
        """Swap in a snapshot that already carries its version.

        This is the fleet-worker publish path: the supervisor stamps
        versions once, persists the snapshot, and every worker re-serves
        the *same* stamped artifact — re-stamping locally would make
        worker answers diverge from each other.  Versions still only
        move forward; adopting a version at or below the current one is
        a no-op returning the currently served snapshot (the worker saw
        a stale sentinel), so concurrent republish races are harmless.
        """
        if snapshot.version < 1:
            raise ValueError(
                "adopt needs a stamped snapshot (version >= 1); "
                "use publish() to stamp"
            )
        with self._publish_lock:
            if snapshot.version <= self._version:
                return self._current if self._current is not None else snapshot
            self._version = snapshot.version
            self._history.append(snapshot)
            self._current = snapshot  # the atomic swap
            return snapshot

    # -- diff feeds ----------------------------------------------------

    def at_version(self, version: int) -> ClassificationSnapshot | None:
        """A still-retained snapshot by exact version, if any."""
        for snapshot in self._history:
            if snapshot.version == version:
                return snapshot
        return None

    def versions_retained(self) -> list[int]:
        """Versions a diff can still be answered against."""
        return [snapshot.version for snapshot in self._history]

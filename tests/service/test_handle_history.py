"""SnapshotHandle history eviction and version adoption under churn.

The handle's deque is the contract boundary for diff feeds: a base
inside the window answers, a base that fell off the end returns None
(the client re-fetches in full), and the retained-version list always
reads oldest-to-newest with the current version last.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.service import SnapshotHandle
from tests.service.test_atomic_swap import stamped_snapshot


def test_diff_since_evicted_version_returns_none():
    handle = SnapshotHandle(history=3)
    for stamp in range(6):
        handle.publish(stamped_snapshot(stamp))
    # versions 1..3 have been pushed out of the window of 3
    assert handle.versions_retained() == [4, 5, 6]
    for evicted in (1, 2, 3):
        assert handle.at_version(evicted) is None
    for retained in (4, 5, 6):
        diff = handle.current().diff(handle.at_version(retained))
        assert diff.base_version == retained
        assert diff.version == 6


def test_at_version_misses():
    handle = SnapshotHandle(history=4)
    assert handle.at_version(1) is None  # nothing published yet
    handle.publish(stamped_snapshot(0))
    assert handle.at_version(0) is None  # versions start at 1
    assert handle.at_version(2) is None  # the future isn't retained
    assert handle.at_version(1) is not None


def test_versions_retained_ordering_under_churn():
    handle = SnapshotHandle(history=5)
    for stamp in range(25):
        handle.publish(stamped_snapshot(stamp))
        retained = handle.versions_retained()
        # Oldest-to-newest, contiguous, capped at the window, and the
        # current version is always the last entry.
        assert retained == sorted(retained)
        assert len(retained) <= 5
        assert retained[-1] == handle.version()
        assert retained == list(
            range(retained[0], retained[-1] + 1)
        )


def test_adopt_is_monotone_and_keeps_stamped_version():
    handle = SnapshotHandle(history=4)
    stamped = dataclasses.replace(stamped_snapshot(1), version=7)
    adopted = handle.adopt(stamped)
    assert adopted is stamped
    assert handle.version() == 7
    assert handle.versions_retained() == [7]

    # Stale (or equal) versions are no-ops returning what's served.
    stale = dataclasses.replace(stamped_snapshot(2), version=7)
    assert handle.adopt(stale) is stamped
    older = dataclasses.replace(stamped_snapshot(3), version=3)
    assert handle.adopt(older) is stamped
    assert handle.version() == 7

    # Newer versions adopt, and publish() continues from there.
    newer = dataclasses.replace(stamped_snapshot(4), version=9)
    assert handle.adopt(newer) is newer
    assert handle.versions_retained() == [7, 9]
    assert handle.publish(stamped_snapshot(5)).version == 10


def test_adopt_rejects_unstamped_snapshots():
    handle = SnapshotHandle()
    with pytest.raises(ValueError):
        handle.adopt(stamped_snapshot(1))  # version 0: never published

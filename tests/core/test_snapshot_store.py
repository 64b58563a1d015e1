"""Delta persistence: cheap appends, bit-identical reconstruction.

The store's contract is exact: every retained version reconstructs to
the snapshot that was appended — columns, day, version, provenance —
whether the store instance is the one that wrote it or a fresh reopen
over the same directory.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.core.snapshot import (
    ClassificationSnapshot,
    VERDICT_DARK,
    VERDICT_GRAY,
)
from repro.core.snapshot_store import SnapshotDeltaStore, SnapshotStoreError


def snap(version: int, size: int = 80, lo: int = 0) -> ClassificationSnapshot:
    """A stamped snapshot whose non-verdict columns are stable per
    block, so consecutive versions differ only where we make them."""
    blocks = np.arange(lo, lo + size, dtype=np.int64)
    return ClassificationSnapshot(
        day=100 + version,
        version=version,
        blocks=blocks,
        verdicts=np.where(
            blocks % 3 == 0, VERDICT_DARK, VERDICT_GRAY
        ).astype(np.uint8),
        confidence=(blocks % 7 + 1) / 8.0,
        since_day=(blocks % 5).astype(np.int32),
        asns=(blocks % 11).astype(np.int32),
        countries=np.full(size, b"AA", dtype="S2"),
        provenance={"v": version},
    )


def flip(
    snapshot: ClassificationSnapshot, version: int, every: int = 9
) -> ClassificationSnapshot:
    """The next version: a few verdicts toggled, metadata restamped."""
    verdicts = np.array(snapshot.verdicts)
    idx = np.arange(0, len(verdicts), every)
    verdicts[idx] = np.where(
        verdicts[idx] == VERDICT_DARK, VERDICT_GRAY, VERDICT_DARK
    )
    return dataclasses.replace(
        snapshot,
        version=version,
        day=100 + version,
        verdicts=verdicts,
        provenance={"v": version},
    )


def test_first_append_writes_base(tmp_path):
    store = SnapshotDeltaStore(tmp_path)
    first = snap(1)
    store.append(first)
    assert store.versions() == [1]
    assert store.load().identical_to(first)
    assert store.load(1).identical_to(first)


def test_every_version_reconstructs_bit_identically(tmp_path):
    store = SnapshotDeltaStore(tmp_path, compact_threshold=None)
    published = [snap(1)]
    for version in range(2, 7):
        published.append(flip(published[-1], version))
    # v4 also grows and shrinks the block universe, not just verdicts.
    grown = published[3]
    keep = np.ones(len(grown.blocks), dtype=bool)
    keep[::17] = False
    published[3] = dataclasses.replace(
        grown,
        blocks=np.concatenate(
            [grown.blocks[keep], grown.blocks[-1:] + 1000]
        ),
        verdicts=np.concatenate(
            [grown.verdicts[keep], np.array([VERDICT_DARK], np.uint8)]
        ),
        confidence=np.concatenate([grown.confidence[keep], [0.5]]),
        since_day=np.concatenate(
            [grown.since_day[keep], np.array([7], np.int32)]
        ),
        asns=np.concatenate([grown.asns[keep], np.array([9], np.int32)]),
        countries=np.concatenate(
            [grown.countries[keep], np.array([b"ZZ"], "S2")]
        ),
    )
    published[4] = flip(published[3], 5)
    published[5] = flip(published[4], 6)
    for snapshot in published:
        store.append(snapshot)
    assert store.versions() == [1, 2, 3, 4, 5, 6]
    for snapshot in published:
        assert store.load(snapshot.version).identical_to(snapshot)


def test_reopen_reconstructs_from_disk(tmp_path):
    store = SnapshotDeltaStore(tmp_path)
    published = [snap(1)]
    store.append(published[0])
    for version in (2, 3):
        published.append(flip(published[-1], version))
        store.append(published[-1])
    reopened = SnapshotDeltaStore(tmp_path)
    assert reopened.versions() == [1, 2, 3]
    for snapshot in published:
        assert reopened.load(snapshot.version).identical_to(snapshot)
    # And the reopened store can keep appending where the old one left.
    fourth = flip(published[-1], 4)
    reopened.append(fourth)
    assert reopened.load(4).identical_to(fourth)


def test_ipv6_store_keeps_family_on_base_and_delta_versions(tmp_path):
    store = SnapshotDeltaStore(tmp_path, compact_threshold=None)
    published = [dataclasses.replace(snap(1, lo=1 << 40), family="ipv6")]
    for version in (2, 3):
        published.append(flip(published[-1], version))
    for snapshot in published:
        store.append(snapshot)
    for reader in (store, SnapshotDeltaStore(tmp_path)):
        assert reader.load().family == "ipv6"
        for snapshot in published:
            assert reader.load(snapshot.version).identical_to(snapshot)


def test_identical_republish_is_a_zero_row_delta(tmp_path):
    store = SnapshotDeltaStore(tmp_path)
    first = snap(1)
    store.append(first)
    bytes_before = store.total_bytes()
    restamp = dataclasses.replace(
        first, version=2, day=first.day, provenance=dict(first.provenance)
    )
    store.append(restamp)
    assert store.versions() == [1, 2]
    assert store.load(2).identical_to(restamp)
    # No delta archive was even created for a content-identical publish.
    assert store.total_bytes() == bytes_before


def test_manifest_is_compact_and_an_indented_one_still_loads(tmp_path):
    store = SnapshotDeltaStore(tmp_path, compact_threshold=None)
    published = [snap(1)]
    for version in (2, 3):
        published.append(flip(published[-1], version))
        store.append(published[-2])
    store.append(published[-1])
    text = store.manifest_path.read_text()
    manifest = json.loads(text)
    assert manifest["manifest_version"] == 1
    assert text == json.dumps(manifest, separators=(",", ":")) + "\n"

    # A store written before the compact encoding: same keys, indented.
    store.manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    reopened = SnapshotDeltaStore(tmp_path, compact_threshold=None)
    published.append(flip(published[-1], 4))
    reopened.append(published[-1])
    assert reopened.versions() == [1, 2, 3, 4]
    for reader in (reopened, SnapshotDeltaStore(tmp_path)):
        for snapshot in published:
            assert reader.load(snapshot.version).identical_to(snapshot)
    rewritten = reopened.manifest_path.read_text()
    assert "\n" not in rewritten.rstrip("\n")
    assert set(json.loads(rewritten)) == set(manifest)


def test_append_requires_monotone_versions(tmp_path):
    store = SnapshotDeltaStore(tmp_path)
    store.append(snap(3))
    with pytest.raises(SnapshotStoreError):
        store.append(snap(3))
    with pytest.raises(SnapshotStoreError):
        store.append(snap(2))
    with pytest.raises(SnapshotStoreError):
        store.append(snap(0))  # unstamped


def test_compaction_narrows_retention_and_keeps_latest(tmp_path):
    store = SnapshotDeltaStore(tmp_path, compact_threshold=0.5)
    published = [snap(1, size=40)]
    store.append(published[0])
    for version in range(2, 8):
        published.append(flip(published[-1], version, every=2))
        store.append(published[-1])
    assert store.compactions >= 1
    retained = store.versions()
    assert retained[-1] == 7
    assert len(retained) < 7  # the deep past was folded into the base
    assert store.load().identical_to(published[-1])
    for version in retained:
        assert store.load(version).identical_to(published[version - 1])
    with pytest.raises(SnapshotStoreError):
        store.load(1)


def test_load_unknown_version_or_empty_store_raises(tmp_path):
    store = SnapshotDeltaStore(tmp_path)
    with pytest.raises(SnapshotStoreError):
        store.load()
    assert store.versions() == []
    store.append(snap(1))
    with pytest.raises(SnapshotStoreError):
        store.load(99)


def test_delta_store_is_smaller_than_full_snapshots(tmp_path):
    store = SnapshotDeltaStore(tmp_path / "store")
    published = [snap(1, size=400)]
    store.append(published[0])
    full_bytes = 0
    for version in range(2, 21):
        published.append(flip(published[-1], version, every=40))
        store.append(published[-1])
    for snapshot in published:
        path = tmp_path / f"full-{snapshot.version}.fpk"
        snapshot.save(path)
        full_bytes += path.stat().st_size
    assert store.versions() == list(range(1, 21))
    assert store.total_bytes() <= 0.25 * full_bytes

"""Delta persistence for classification snapshots.

A serving fleet republishes snapshots many times a day, but between two
consecutive publishes only a handful of /24s actually change verdict —
persisting the full table per publish makes the year-scale archive cost
O(classified blocks × publishes).  A :class:`SnapshotDeltaStore` stores
one **full** base snapshot plus one flowpack segment of *row deltas*
per publish, so the archive grows O(changed /24s) per publish while
still reconstructing **any retained version bit-identically** —
columns, day, version and provenance included.

Layout (all writes atomic via temp file + ``os.replace``)::

    <root>/base.fpk       full snapshot of the oldest retained version
                          (the standard ``snapshot.fpk`` table kind)
    <root>/deltas.fpk     generic flowpack table archive; one segment
                          per publish, rows are upserts/deletes
    <root>/manifest.json  version -> (day, provenance, segment) index

A delta row is the full new column tuple of a block that appeared or
changed (``op=1``, upsert) or a bare block id that disappeared
(``op=2``, delete).  Reconstruction replays segments in publish order
on top of the base arrays; because every surviving row's bytes come
either from the base archive or from the delta segment that last wrote
it, the replayed snapshot is bit-identical to what was published.

**Compaction** bounds replay cost and archive size: once the
accumulated delta rows exceed ``compact_threshold`` times the size of
the latest snapshot, the store rewrites ``base.fpk`` as the current
snapshot and truncates the delta log.  Compaction narrows the retained
window to the compacted version — exactly like the serving handle's
bounded history, the deep past must come from colder storage.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from repro.core.snapshot import (
    SNAPSHOT_COLUMNS,
    ClassificationSnapshot,
)
from repro.flowpack import (
    TableArchive,
    append_table_columns,
    write_table_archive,
)
from repro.net.blocksets import align_sorted

#: Delta-row operations.
OP_UPSERT = 1
OP_DELETE = 2

#: Schema of one ``deltas.fpk`` segment: the snapshot columns plus the
#: operation code.  Delete rows carry only a meaningful ``blocks``
#: value (the other columns are zero-filled).
DELTA_COLUMNS = {"op": np.dtype(np.uint8), **SNAPSHOT_COLUMNS}

#: Archive-kind tag in the delta archive's header meta.
DELTA_KIND = "classification-snapshot-deltas"

_MANIFEST_VERSION = 1


class SnapshotStoreError(ValueError):
    """A structurally damaged or misused snapshot store."""


def _atomic_write_text(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _row_delta(
    prev: ClassificationSnapshot, new: ClassificationSnapshot
) -> dict[str, np.ndarray]:
    """The upsert/delete rows that turn ``prev``'s table into ``new``'s.

    Upserts are blocks that are new or whose row differs in *any*
    column; deletes are blocks no longer present.  Both sides are
    sorted by block id, so the delta is deterministic.
    """
    # One probe aligns the two sorted tables.  A row is an upsert when
    # it is absent from prev OR any column differs.
    positions, hit = align_sorted(new.blocks, prev.blocks)
    prev_rows = positions[hit]
    differs = np.zeros(len(prev_rows), dtype=bool)
    for name in SNAPSHOT_COLUMNS:
        if name != "blocks":
            differs |= getattr(new, name)[hit] != getattr(prev, name)[prev_rows]
    upsert = ~hit
    upsert[hit] = differs
    up_idx = np.flatnonzero(upsert)
    upsert_blocks = new.blocks[up_idx]
    retained = np.zeros(len(prev), dtype=bool)
    retained[prev_rows] = True
    removed = prev.blocks[~retained]

    ops = np.concatenate([
        np.full(len(removed), OP_DELETE, dtype=np.uint8),
        np.full(len(upsert_blocks), OP_UPSERT, dtype=np.uint8),
    ])
    arrays: dict[str, np.ndarray] = {"op": ops}
    for name, dtype in SNAPSHOT_COLUMNS.items():
        if name == "blocks":
            arrays[name] = np.concatenate([
                removed, upsert_blocks
            ]).astype(np.int64)
            continue
        filler = np.zeros(len(removed), dtype=dtype)
        arrays[name] = np.concatenate([
            filler, getattr(new, name)[up_idx].astype(dtype)
        ])
    return arrays


def _apply_delta(
    arrays: dict[str, np.ndarray], delta: Mapping[str, np.ndarray]
) -> dict[str, np.ndarray]:
    """Replay one delta segment onto snapshot column arrays."""
    ops = delta["op"]
    touched = np.asarray(delta["blocks"], dtype=np.int64)
    upsert_mask = ops == OP_UPSERT
    # Every touched block leaves the previous table; upserts re-enter
    # with their new row.  The stable sort over two ascending runs is a
    # linear merge and keeps the result sorted (snapshot invariant).
    positions, hit = align_sorted(touched, arrays["blocks"])
    keep = np.ones(len(arrays["blocks"]), dtype=bool)
    keep[positions[hit]] = False
    merged: dict[str, np.ndarray] = {}
    order = None
    for name, dtype in SNAPSHOT_COLUMNS.items():
        column = np.concatenate([
            arrays[name][keep],
            np.asarray(delta[name])[upsert_mask].astype(dtype),
        ])
        if name == "blocks":
            order = np.argsort(column, kind="stable")
        merged[name] = column
    return {name: column[order] for name, column in merged.items()}


class SnapshotDeltaStore:
    """Append-only snapshot archive: one full base + per-publish deltas.

    ``compact_threshold`` is the delta-rows-to-snapshot-rows ratio that
    triggers compaction (``None`` disables it); ``0`` compacts on every
    publish, which degenerates to full-snapshot storage.
    """

    def __init__(
        self,
        root: str | Path,
        compact_threshold: float | None = 4.0,
    ) -> None:
        if compact_threshold is not None and compact_threshold < 0:
            raise ValueError("compact_threshold must be >= 0 or None")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.compact_threshold = compact_threshold
        self.compactions = 0
        # The store is the one writer of its files, so what it last wrote
        # stays in memory: the manifest, how many segments deltas.fpk
        # holds, and the latest snapshot.  An append reads back only the
        # segment headers append_table_columns checks before it writes.
        self._latest: ClassificationSnapshot | None = None
        self._manifest = self._read_manifest()
        self._segments = 0
        if self._manifest is not None:
            self.compactions = int(self._manifest.get("compactions", 0))
            if self.deltas_path.exists():
                self._segments = len(
                    TableArchive(
                        self.deltas_path, expected_columns=DELTA_COLUMNS
                    ).segments
                )
            self._latest = self._reconstruct(self._manifest, None)

    # -- paths & manifest ----------------------------------------------

    @property
    def base_path(self) -> Path:
        return self.root / "base.fpk"

    @property
    def deltas_path(self) -> Path:
        return self.root / "deltas.fpk"

    @property
    def manifest_path(self) -> Path:
        return self.root / "manifest.json"

    def _read_manifest(self) -> dict[str, Any] | None:
        if not self.manifest_path.exists():
            return None
        manifest = json.loads(self.manifest_path.read_text())
        if manifest.get("manifest_version") != _MANIFEST_VERSION:
            raise SnapshotStoreError(
                f"{self.manifest_path}: unsupported manifest version "
                f"{manifest.get('manifest_version')!r}"
            )
        return manifest

    def _require_manifest(self) -> dict[str, Any]:
        manifest = self._manifest
        if manifest is None:
            raise SnapshotStoreError(f"{self.root}: empty snapshot store")
        return manifest

    def _write_manifest(self, manifest: dict[str, Any]) -> None:
        manifest["manifest_version"] = _MANIFEST_VERSION
        manifest["compactions"] = self.compactions
        _atomic_write_text(
            self.manifest_path,
            json.dumps(manifest, separators=(",", ":")) + "\n",
        )
        self._manifest = manifest

    # -- the write path ------------------------------------------------

    def append(self, snapshot: ClassificationSnapshot) -> None:
        """Persist one published snapshot (monotone version required).

        The first append writes the full base; every later one appends
        a delta segment of O(changed /24s) rows, then compacts if the
        accumulated deltas crossed the threshold.
        """
        if snapshot.version < 1:
            raise SnapshotStoreError(
                "only published snapshots (version >= 1) can be stored"
            )
        manifest, latest = self._manifest, self._latest
        if manifest is None:
            self._write_base(snapshot)
            self._latest = snapshot
            return
        if snapshot.version <= latest.version:
            raise SnapshotStoreError(
                f"store already holds version {latest.version}; "
                f"cannot append version {snapshot.version}"
            )
        delta = _row_delta(latest, snapshot)
        entry = {
            "version": int(snapshot.version),
            "day": int(snapshot.day),
            "rows": int(len(delta["op"])),
            "provenance": dict(snapshot.provenance),
            "segment": None,
        }
        if entry["rows"]:
            if not self._segments:
                write_table_archive(
                    {
                        name: np.empty(0, dtype=dtype)
                        for name, dtype in DELTA_COLUMNS.items()
                    },
                    self.deltas_path,
                    meta={"kind": DELTA_KIND},
                )
            entry["segment"] = self._segments
            append_table_columns(delta, self.deltas_path)
            self._segments += 1
        # A new dict, so a manifest write that fails leaves the one in
        # memory as it is on disk.
        manifest = {**manifest, "deltas": [*manifest["deltas"], entry]}
        self._write_manifest(manifest)
        self._latest = snapshot
        if (
            self.compact_threshold is not None
            and self._delta_rows(manifest) > self.compact_threshold
            * max(len(snapshot), 1)
        ):
            self.compact()

    def _write_base(self, snapshot: ClassificationSnapshot) -> None:
        tmp = self.base_path.with_name(self.base_path.name + ".tmp")
        snapshot.save(tmp)
        os.replace(tmp, self.base_path)
        if self.deltas_path.exists():
            self.deltas_path.unlink()
        self._segments = 0
        self._write_manifest(
            {
                "base": {
                    "version": int(snapshot.version),
                    "day": int(snapshot.day),
                    "rows": int(len(snapshot)),
                },
                "deltas": [],
            }
        )

    def compact(self) -> None:
        """Fold all deltas into a new base (narrows retention to now)."""
        latest = self._latest if self._latest is not None else self.load()
        self.compactions += 1
        self._write_base(latest)
        self._latest = latest

    @staticmethod
    def _delta_rows(manifest: dict[str, Any]) -> int:
        return sum(entry["rows"] for entry in manifest["deltas"])

    # -- the read path -------------------------------------------------

    def versions(self) -> list[int]:
        """Retained versions, oldest first (empty store: ``[]``)."""
        manifest = self._manifest
        if manifest is None:
            return []
        return [manifest["base"]["version"]] + [
            entry["version"] for entry in manifest["deltas"]
        ]

    def load(self, version: int | None = None) -> ClassificationSnapshot:
        """Reconstruct a retained version (default: the latest).

        The result is bit-identical to the snapshot that was appended:
        same columns, day, version and provenance.
        """
        manifest = self._require_manifest()
        if version is not None and version not in self.versions():
            raise SnapshotStoreError(
                f"version {version} not retained (have {self.versions()})"
            )
        return self._reconstruct(manifest, version)

    def _reconstruct(
        self, manifest: dict[str, Any], version: int | None
    ) -> ClassificationSnapshot:
        base = ClassificationSnapshot.open(self.base_path)
        if version is not None and version == manifest["base"]["version"]:
            return base
        arrays = {
            name: np.asarray(column)
            for name, column in base.arrays().items()
        }
        day, snapshot_version = base.day, base.version
        provenance: Mapping[str, Any] = base.provenance
        archive = (
            TableArchive(self.deltas_path, expected_columns=DELTA_COLUMNS)
            if self.deltas_path.exists()
            else None
        )
        for entry in manifest["deltas"]:
            if version is not None and entry["version"] > version:
                break
            if entry["rows"]:
                if archive is None:
                    raise SnapshotStoreError(
                        f"{self.deltas_path}: missing delta archive"
                    )
                delta = archive.segment_arrays(entry["segment"])
                arrays = _apply_delta(arrays, delta)
            day, snapshot_version = entry["day"], entry["version"]
            provenance = entry["provenance"]
        return ClassificationSnapshot(
            day=day,
            version=snapshot_version,
            provenance=dict(provenance),
            family=base.family,
            **arrays,
        )

    # -- accounting ----------------------------------------------------

    def total_bytes(self) -> int:
        """On-disk footprint of base + deltas (manifest excluded)."""
        return sum(
            path.stat().st_size
            for path in (self.base_path, self.deltas_path)
            if path.exists()
        )

"""Content-addressed cache of generated vantage-day captures.

Generating a synthetic day is the expensive step of every benchmark
and every :class:`~repro.core.online.OnlineMetaTelescope` re-run: the
ground-truth mix is simulated, annotated, claimed and sampled per
vantage — and then usually thrown away and regenerated by the next
script.  This cache makes a generated (config, day, vantage) capture a
durable artifact:

* the **key** is the SHA-256 of the canonical JSON of the full
  :class:`~repro.world.config.WorldConfig` (seed included), the day,
  the vantage id, and any extra knobs the caller layers on top
  (sampling overrides, fault-plan seeds, …) — content addressing, so
  *any* config change, however small, is automatically a different
  entry and stale hits are impossible;
* the **value** is a flowpack archive (:mod:`repro.flowpack`) whose
  metadata carries the vantage/day/sampling factor, loaded back as a
  zero-copy :class:`~repro.vantage.archive.ArchiveDayView`;
* the **layout** is ``root/<k0k1>/<key>.fpk`` (a two-hex-digit fan-out
  so directories stay small), written atomically via a same-directory
  temp file + ``os.replace``.

Invalidation is by construction: entries are immutable and keyed by
content, so there is nothing to invalidate — delete the root (or old
fan-out dirs) to reclaim space.  World generation is seeded and
deterministic, therefore a cached capture is **bit-identical** to
regenerating it; consumers may treat a hit as a pure speedup.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from repro.vantage.archive import ArchiveDayView, export_view
from repro.vantage.sampling import VantageDayView
from repro.world.config import WorldConfig

#: Cache-format version; bumped when the flowpack layout or the key
#: derivation changes, so old trees can never serve new readers.
CACHE_VERSION = 1


def capture_key(
    config: WorldConfig,
    day: int,
    vantage: str,
    knobs: Mapping[str, Any] | None = None,
) -> str:
    """The content address of one generated vantage-day capture."""
    payload = {
        "cache_version": CACHE_VERSION,
        "config": dataclasses.asdict(config),
        "day": int(day),
        "vantage": str(vantage),
        "knobs": dict(sorted((knobs or {}).items())),
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode()
    ).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss counters plus on-disk footprint."""

    hits: int = 0
    misses: int = 0
    entries: int = 0
    bytes: int = 0


class CaptureCache:
    """Content-addressed store of vantage-day flowpack archives."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def key_for(
        self,
        config: WorldConfig,
        day: int,
        vantage: str,
        **knobs: Any,
    ) -> str:
        """Content address for a capture under this cache's versioning."""
        return capture_key(config, day, vantage, knobs)

    def path_for(self, key: str) -> Path:
        """Where an entry with ``key`` lives (existing or not)."""
        return self.root / key[:2] / f"{key}.fpk"

    def has(self, key: str) -> bool:
        """Whether the entry exists (no counters touched)."""
        return self.path_for(key).exists()

    def load(self, key: str) -> ArchiveDayView | None:
        """The cached capture as a zero-copy view, or ``None`` on miss.

        An unreadable entry (torn write from a killed process, disk
        damage) counts as a miss and is removed, so the caller simply
        regenerates — the cache can never poison a run.
        """
        path = self.path_for(key)
        if not path.exists():
            self.misses += 1
            return None
        try:
            view = ArchiveDayView.open(path)
        except (ValueError, OSError):
            path.unlink(missing_ok=True)
            self.misses += 1
            return None
        self.hits += 1
        return view

    def store(self, key: str, view: VantageDayView) -> ArchiveDayView:
        """Persist a generated capture; returns the archive-backed view.

        The write is atomic (temp file + ``os.replace`` in the entry's
        directory), so concurrent benchmark processes racing on the
        same key both end with one intact entry.
        """
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        handle, temp = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".fpk"
        )
        os.close(handle)
        try:
            export_view(view, temp)
            os.replace(temp, path)
        except BaseException:
            os.unlink(temp)
            raise
        return ArchiveDayView(
            vantage=view.vantage,
            day=view.day,
            path=path,
            sampling_factor=view.sampling_factor,
        )

    def stats(self) -> CacheStats:
        """Counters plus a walk of the tree for entry count and bytes."""
        entries = 0
        total = 0
        for path in self.root.glob("*/*.fpk"):
            entries += 1
            total += path.stat().st_size
        return CacheStats(
            hits=self.hits, misses=self.misses, entries=entries, bytes=total
        )

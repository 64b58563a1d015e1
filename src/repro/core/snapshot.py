"""Immutable, versioned classification snapshots.

The paper's end product is *operational*: an operator continuously
knows which /24s are dark and treats traffic toward them as IBR
(Section 9's "meta-telescope information as a service").  Until this
module, that knowledge only existed as the transient return values of
:meth:`~repro.core.metatelescope.MetaTelescope.infer` /
:meth:`~repro.core.online.OnlineMetaTelescope.update` — batch results
a caller had to hold onto and re-derive per question.

A :class:`ClassificationSnapshot` freezes one day's complete verdict
state into a first-class artifact:

* **per-/24 verdict** (dark / unclean / gray / candidate — see
  :data:`VERDICT_NAMES`), **confidence** and **since-day** (start of
  the latest consecutive dark streak), sorted by block id;
* optional **AS and country enrichment** so range/AS/geo queries need
  no datasets at query time;
* **provenance**: the world seed, the
  :class:`~repro.core.engine.ExecutionPlan` that produced it, and the
  producing engine's feed-quality/HealthReport summary;
* a **flowpack-backed on-disk form** (``snapshot.fpk``): the generic
  table-archive kind of :mod:`repro.flowpack`, so opening is an
  O(header) scan plus zero-copy, read-only views of the mapped file, with
  per-column CRC-32 verification;
* **O(log n) lookups**: point queries are one ``np.searchsorted``
  probe of the sorted block column, and a block range is two;
* **answer text**: :class:`RenderedRows` renders a row's JSON answer
  straight from the columns the first time it is asked for — the bytes
  ``json.dumps(PointAnswer.to_dict())`` would give — so the service
  joins text instead of building per-row objects.

Snapshots are immutable and versioned: the serving layer
(:mod:`repro.service`) stamps a monotonically increasing ``version``
at publish time via :func:`dataclasses.replace` and swaps whole
snapshots atomically — readers never observe a partial state, and
:meth:`ClassificationSnapshot.diff` answers "what changed since
version/day N" between any two of them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from repro.flowpack import TableArchive, write_table_archive
from repro.net.blocksets import align_sorted, as_sorted_unique, sorted_member_mask
from repro.net.family import FAMILY_IPV4, AddressFamily, family as _family_of
from repro.net.ipv4 import AddressError

#: Verdict codes stored in the snapshot's ``verdicts`` column.  Code 0
#: is reserved for "not in the snapshot" (an unobserved block) so a
#: failed lookup has a spelling.
VERDICT_UNKNOWN = 0
VERDICT_DARK = 1
VERDICT_UNCLEAN = 2
VERDICT_GRAY = 3
#: Inferred dark by the window inference but withheld from serving
#: (stability requirement not yet met, or quarantined) — the online
#: engine's "almost dark" state, so a snapshot distinguishes "served
#: dark" from "provisionally dark".
VERDICT_CANDIDATE = 4

VERDICT_NAMES = {
    VERDICT_UNKNOWN: "unknown",
    VERDICT_DARK: "dark",
    VERDICT_UNCLEAN: "unclean",
    VERDICT_GRAY: "gray",
    VERDICT_CANDIDATE: "candidate",
}

#: The on-disk column schema of a ``snapshot.fpk`` table archive.
SNAPSHOT_COLUMNS = {
    "blocks": np.dtype(np.int64),
    "verdicts": np.dtype(np.uint8),
    "confidence": np.dtype(np.float64),
    "since_day": np.dtype(np.int32),
    "asns": np.dtype(np.int32),
    "countries": np.dtype("S2"),
}

#: Archive-kind tag in the flowpack header meta.
SNAPSHOT_KIND = "classification-snapshot"

#: ``asns`` value for "not enriched / no covering announcement".
NO_ASN = -1
#: ``countries`` value for "not enriched / unknown".
NO_COUNTRY = b"??"


def _streak_confidence(streak_days: np.ndarray) -> np.ndarray:
    """Confidence from a consecutive-dark-day streak: ``s / (s + 1)``.

    Monotone in the streak, parameter-free, and deterministic — one
    day of evidence scores 0.5, and each further consecutive day
    closes half the remaining gap to 1.0 (the §7.1 multi-day
    confirmation recommendation as a number).
    """
    streak = np.asarray(streak_days, dtype=np.float64)
    return streak / (streak + 1.0)


@dataclass(frozen=True, slots=True)
class PointAnswer:
    """One block's full answer ("is 203.0.113.0/24 dark? since when?")."""

    block: int
    verdict: int
    confidence: float
    since_day: int
    asn: int
    country: str
    #: Address family the block id lives in ("ipv4" or "ipv6").
    family: str = FAMILY_IPV4

    @property
    def verdict_name(self) -> str:
        return VERDICT_NAMES[self.verdict]

    @property
    def dark(self) -> bool:
        return self.verdict == VERDICT_DARK

    @property
    def prefix(self):
        return _family_of(self.family).block_to_prefix(self.block)

    def to_dict(self) -> dict[str, Any]:
        """The JSON shape the query service returns."""
        return {
            "prefix": str(self.prefix),
            "block": self.block,
            "verdict": self.verdict_name,
            "dark": self.dark,
            "confidence": round(self.confidence, 6),
            "since_day": self.since_day if self.verdict else None,
            "asn": self.asn if self.asn != NO_ASN else None,
            "country": self.country if self.country != "??" else None,
        }


def _block_text(family: AddressFamily, block: int) -> str:
    """``family.format_block(block)`` without building the prefix."""
    if not 0 <= block < family.num_blocks:
        raise AddressError(
            f"not a /{family.block_prefix_length} block id: {block}"
        )
    if family.name == FAMILY_IPV4:
        return f"{block >> 16}.{block >> 8 & 255}.{block & 255}.0/24"
    # A /48's five low groups are zero, so RFC 5952 folds them, and any
    # zero groups right before them, into the one "::".
    groups = [block >> 32, block >> 16 & 0xFFFF, block & 0xFFFF]
    while groups and not groups[-1]:
        groups.pop()
    return ":".join(f"{group:x}" for group in groups) + "::/48"


def _answer_text(
    family: AddressFamily,
    block: int,
    verdict: int,
    confidence: float,
    since_day: int,
    asn: int,
    country: bytes,
) -> str:
    """``json.dumps(PointAnswer(...).to_dict())``, byte for byte, built
    from the column values without either object.  The parameters after
    ``family`` are the snapshot columns in schema order."""
    confidence = round(confidence, 6)
    # json.dumps spells a float as its repr, except the non-finite ones.
    confidence_text = (
        repr(confidence) if math.isfinite(confidence) else json.dumps(confidence)
    )
    return (
        f'{{"prefix": "{_block_text(family, block)}", "block": {block}, '
        f'"verdict": "{VERDICT_NAMES[verdict]}", '
        f'"dark": {"true" if verdict == VERDICT_DARK else "false"}, '
        f'"confidence": {confidence_text}, '
        f'"since_day": {since_day if verdict else "null"}, '
        f'"asn": {asn if asn != NO_ASN else "null"}, '
        f'"country": '
        f'{"null" if country == NO_COUNTRY else json.dumps(country.decode())}}}'
    )


class RenderedRows:
    """The answer text of each row of one snapshot, rendered on first use.

    Row ``i``'s text is :func:`_answer_text` of that row, so a range
    answer is a ``", "``-join over a slice and a point answer a list
    index.  The serving layer keeps one of these for the snapshot it is
    serving and drops it when it serves another, so a process holds at
    most one version's text however many it retains for diffs.

    Filling takes no lock: threads that race on a row render the same
    text and whichever store lands last wins.
    """

    __slots__ = ("snapshot", "_texts", "__weakref__")

    def __init__(self, snapshot: "ClassificationSnapshot") -> None:
        self.snapshot = snapshot
        self._texts: list[str | None] = [None] * len(snapshot)

    def point(self, block: int) -> str:
        """The answer text for one block id, classified or not."""
        snapshot = self.snapshot
        row = int(np.searchsorted(snapshot.blocks, block))
        if row < len(snapshot) and snapshot.blocks[row] == block:
            if self._texts[row] is None:
                self._fill((row,))
            return self._texts[row]
        return _answer_text(
            snapshot.address_family, block, VERDICT_UNKNOWN, 0.0, 0, NO_ASN,
            NO_COUNTRY,
        )

    def join(self, rows: range | np.ndarray) -> str:
        """The ``", "``-joined text of ``rows``: a ``range`` of rows or
        an array of row indices."""
        try:
            return ", ".join(self._picked(rows))
        except TypeError:  # a row not rendered yet
            self._fill(rows)
            return ", ".join(self._picked(rows))

    def _picked(self, rows: range | np.ndarray) -> list[str | None]:
        if isinstance(rows, range):
            return self._texts[rows.start:rows.stop]
        texts = self._texts
        return [texts[row] for row in rows.tolist()]

    def _fill(self, rows: Sequence[int]) -> None:
        """Render those of ``rows`` not rendered yet, straight from the
        columns, and memoise them."""
        texts, snapshot = self._texts, self.snapshot
        family = snapshot.address_family
        missing = [row for row in rows if texts[row] is None]
        columns = (
            getattr(snapshot, name)[missing].tolist() for name in SNAPSHOT_COLUMNS
        )
        for row, values in zip(missing, zip(*columns)):
            texts[row] = _answer_text(family, *values)


@dataclass(frozen=True, slots=True)
class SnapshotDiff:
    """What changed between two snapshots of the same telescope."""

    base_version: int
    base_day: int
    version: int
    day: int
    #: Blocks newly served dark.
    added_dark: np.ndarray
    #: Blocks no longer served dark.
    removed_dark: np.ndarray
    #: Blocks present in both whose verdict changed (any direction).
    changed: np.ndarray
    #: Address family both snapshots live in.
    family: str = FAMILY_IPV4

    def to_dict(self) -> dict[str, Any]:
        to_prefix = _family_of(self.family).block_to_prefix
        return {
            "base_version": self.base_version,
            "base_day": self.base_day,
            "version": self.version,
            "day": self.day,
            "added_dark": [str(to_prefix(int(b))) for b in self.added_dark],
            "removed_dark": [
                str(to_prefix(int(b))) for b in self.removed_dark
            ],
            "changed": [str(to_prefix(int(b))) for b in self.changed],
        }


@dataclass(frozen=True)
class ClassificationSnapshot:
    """One day's complete, immutable classification state.

    Columns are aligned, sorted by ``blocks``, and read-only; the
    snapshot as a whole is hashable-by-identity and safe to share
    across threads without locks (the serving layer's atomic-swap
    handle relies on exactly that).
    """

    #: Day the snapshot describes (the last folded vantage-day).
    day: int
    #: Sorted, unique /24 block ids of every classified block.
    blocks: np.ndarray
    #: Verdict code per block (see :data:`VERDICT_NAMES`; never 0).
    verdicts: np.ndarray
    #: Confidence in [0, 1] per block.
    confidence: np.ndarray
    #: First day of the latest consecutive streak of this verdict.
    since_day: np.ndarray
    #: Origin ASN per block (:data:`NO_ASN` when unenriched/unknown).
    asns: np.ndarray
    #: ISO country code per block (``"??"`` when unenriched/unknown).
    countries: np.ndarray
    #: Producer provenance: world seed, execution plan, health summary.
    provenance: Mapping[str, Any] = field(default_factory=dict)
    #: Monotone publish version; 0 until a handle publishes it.
    version: int = 0
    #: Address family of the block ids ("ipv4" /24s or "ipv6" /48s).
    family: str = FAMILY_IPV4

    def __post_init__(self) -> None:
        columns = {
            name: np.ascontiguousarray(getattr(self, name), dtype=dtype)
            for name, dtype in SNAPSHOT_COLUMNS.items()
        }
        lengths = {len(column) for column in columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"ragged snapshot columns: lengths {lengths}")
        blocks = columns["blocks"]
        if len(blocks) > 1 and not np.all(np.diff(blocks) > 0):
            raise ValueError("snapshot blocks must be sorted and unique")
        verdicts = columns["verdicts"]
        if len(verdicts) and (
            verdicts.min() < VERDICT_DARK or verdicts.max() > VERDICT_CANDIDATE
        ):
            raise ValueError("snapshot verdict codes out of range")
        for name, column in columns.items():
            try:
                column.setflags(write=False)
            except ValueError:  # views of the mapped file are already frozen
                pass
            object.__setattr__(self, name, column)

    # -- lookups -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.blocks)

    @property
    def address_family(self):
        """The :class:`~repro.net.family.AddressFamily` of the blocks."""
        return _family_of(self.family)

    @cached_property
    def dark_blocks(self) -> np.ndarray:
        """Sorted blocks served dark (the meta-telescope prefix list)."""
        return self.blocks[self.verdicts == VERDICT_DARK]

    def indices_of(self, blocks: np.ndarray) -> np.ndarray:
        """Row index per queried block (-1 where absent); O(log n) each."""
        positions, hit = align_sorted(
            np.asarray(blocks, dtype=np.int64), self.blocks
        )
        return np.where(hit, positions, -1)

    def lookup(self, block: int) -> PointAnswer:
        """Full point answer for one /24 block."""
        idx = int(self.indices_of(np.array([block]))[0])
        if idx < 0:
            return PointAnswer(
                block=int(block),
                verdict=VERDICT_UNKNOWN,
                confidence=0.0,
                since_day=self.day,
                asn=NO_ASN,
                country="??",
                family=self.family,
            )
        return PointAnswer(
            block=int(block),
            verdict=int(self.verdicts[idx]),
            confidence=float(self.confidence[idx]),
            since_day=int(self.since_day[idx]),
            asn=int(self.asns[idx]),
            country=self.countries[idx].decode(),
            family=self.family,
        )

    def range(self, start_block: int, end_block: int) -> "ClassificationSnapshot":
        """The sub-snapshot covering ``[start_block, end_block]``.

        The returned snapshot's columns are zero-copy slices of this
        one's.
        """
        return self._sliced(slice(*self.row_span(start_block, end_block)))

    def row_span(self, start_block: int, end_block: int) -> tuple[int, int]:
        """Rows ``[lo, hi)`` holding the blocks in ``[start_block,
        end_block]``: two ``searchsorted`` probes."""
        return (
            int(np.searchsorted(self.blocks, start_block, side="left")),
            int(np.searchsorted(self.blocks, end_block, side="right")),
        )

    def head(self, count: int) -> "ClassificationSnapshot":
        """The first ``count`` rows (a query budget's truncation)."""
        return self._sliced(slice(0, max(count, 0)))

    def _sliced(self, index) -> "ClassificationSnapshot":
        return replace(
            self,
            **{
                name: getattr(self, name)[index]
                for name in SNAPSHOT_COLUMNS
            },
        )

    def verdict_counts(self) -> dict[str, int]:
        """How many blocks hold each verdict."""
        codes, counts = np.unique(self.verdicts, return_counts=True)
        return {
            VERDICT_NAMES[int(code)]: int(count)
            for code, count in zip(codes, counts)
        }

    def arrays(self) -> dict[str, np.ndarray]:
        """The column arrays, in schema order (the on-disk shape)."""
        return {name: getattr(self, name) for name in SNAPSHOT_COLUMNS}

    def identical_to(self, other: "ClassificationSnapshot") -> bool:
        """Bit-identity: same day, version, provenance and columns.

        This is the parity predicate the delta store and the serving
        fleet gate on — ``==`` would compare array identity, not
        content.
        """
        return (
            self.day == other.day
            and self.version == other.version
            and self.family == other.family
            and dict(self.provenance) == dict(other.provenance)
            and all(
                np.array_equal(getattr(self, name), getattr(other, name))
                for name in SNAPSHOT_COLUMNS
            )
        )

    # -- enrichment ----------------------------------------------------

    def enrich(self, pfx2as=None, geodb=None) -> "ClassificationSnapshot":
        """A copy with AS/geo columns filled from the datasets.

        ``pfx2as`` is a :class:`~repro.datasets.pfx2as.PrefixToAsMap`,
        ``geodb`` a :class:`~repro.datasets.geodb.GeoDatabase`; either
        may be None to leave that column as-is.  Both datasets did their
        work when they were built (the map is a flat partition of the
        block axis, the database holds its codes as the column's bytes),
        so each column is one sorted probe and a gather.
        """
        updates: dict[str, np.ndarray] = {}
        if pfx2as is not None and len(self.blocks):
            # The map's -1 for an uncovered block is NO_ASN.
            updates["asns"] = pfx2as.asns_of_blocks(self.blocks)
        if geodb is not None and len(self.blocks):
            updates["countries"] = geodb.codes_of_blocks(self.blocks)
        if not updates:
            return self
        return replace(self, **updates)

    # -- diffs ---------------------------------------------------------

    def diff(self, older: "ClassificationSnapshot") -> SnapshotDiff:
        """What changed from ``older`` to this snapshot."""
        if self.family != older.family:
            raise ValueError(
                f"cannot diff {self.family} snapshot against "
                f"{older.family} snapshot"
            )
        # One probe aligns the two sorted tables; the three sets are
        # masks over the rows it matched.
        positions, hit = align_sorted(self.blocks, older.blocks)
        older_rows = positions[hit]
        now, was = self.verdicts[hit], older.verdicts[older_rows]
        was_dark = np.zeros(len(self), dtype=bool)
        was_dark[hit] = was == VERDICT_DARK
        still_dark = np.zeros(len(older), dtype=bool)
        still_dark[older_rows] = now == VERDICT_DARK
        return SnapshotDiff(
            base_version=older.version,
            base_day=older.day,
            version=self.version,
            day=self.day,
            added_dark=self.blocks[(self.verdicts == VERDICT_DARK) & ~was_dark],
            removed_dark=older.blocks[
                (older.verdicts == VERDICT_DARK) & ~still_dark
            ],
            changed=self.blocks[hit][now != was],
            family=self.family,
        )

    # -- persistence ---------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the ``snapshot.fpk`` on-disk form (flowpack table
        archive: O(header) open, memory-mapped columns, per-column
        CRC)."""
        write_table_archive(
            {name: getattr(self, name) for name in SNAPSHOT_COLUMNS},
            path,
            meta={
                "kind": SNAPSHOT_KIND,
                "day": int(self.day),
                "version": int(self.version),
                "family": self.family,
                "provenance": dict(self.provenance),
            },
        )

    @classmethod
    def open(
        cls, path: str | Path, verify: bool = True
    ) -> "ClassificationSnapshot":
        """Open a ``snapshot.fpk``: O(header) structural scan, zero-copy
        read-only column views of the mapped file, CRC verification
        (skippable)."""
        archive = TableArchive(path, expected_columns=SNAPSHOT_COLUMNS)
        meta = archive.meta
        if meta.get("kind") != SNAPSHOT_KIND:
            raise ValueError(
                f"{path}: not a classification snapshot "
                f"(kind={meta.get('kind')!r})"
            )
        arrays = archive.read_arrays(verify=verify)
        return cls(
            day=int(meta.get("day", 0)),
            provenance=meta.get("provenance", {}),
            version=int(meta.get("version", 0)),
            # Archives written before the family tag are IPv4.
            family=str(meta.get("family", FAMILY_IPV4)),
            **arrays,
        )


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def _streak_history(
    blocks: np.ndarray,
    history: Sequence[tuple[int, np.ndarray]] | None,
    day: int,
) -> tuple[np.ndarray, np.ndarray]:
    """``(length in entries, first day)`` of each block's latest
    consecutive presence streak.

    ``history`` is ``[(day, present_blocks), ...]`` (the online engine's
    window).  "Consecutive" means consecutive *entries* — with a gap
    policy in play the engine may legitimately skip calendar days.  A
    block absent from the newest entry still scores one entry starting
    today: the caller is snapshotting it *because* today's inference
    holds it, so today is always evidence.
    """
    streaks = np.zeros(len(blocks), dtype=np.int64)
    since = np.full(len(blocks), day, dtype=np.int32)
    alive = np.ones(len(blocks), dtype=bool)
    for streak_day, present in sorted(
        history or (), key=lambda item: item[0], reverse=True
    ):
        alive &= sorted_member_mask(blocks, as_sorted_unique(present))
        if not alive.any():
            break
        streaks[alive] += 1
        since[alive] = streak_day
    return np.maximum(streaks, 1), since


def build_snapshot(
    day: int,
    dark: np.ndarray,
    unclean: np.ndarray | None = None,
    gray: np.ndarray | None = None,
    candidate: np.ndarray | None = None,
    history: Sequence[tuple[int, np.ndarray]] | None = None,
    provenance: Mapping[str, Any] | None = None,
    family: str = FAMILY_IPV4,
) -> ClassificationSnapshot:
    """Assemble a snapshot from verdict sets.

    ``dark`` wins over ``candidate`` wins over ``gray`` wins over
    ``unclean`` when a block appears in several (it cannot, coming from
    the pipeline, but the builder is defensive).  ``history`` feeds the
    since-day and confidence columns; without it every verdict is
    one-day evidence (confidence 0.5, since-day = ``day``).
    """
    # One stable merge, weakest set first: equal keys keep concatenation
    # order, so the last row of a tie run carries the strongest verdict.
    ranked = (VERDICT_UNCLEAN, VERDICT_GRAY, VERDICT_CANDIDATE, VERDICT_DARK)
    sets = [
        as_sorted_unique(members if members is not None else ())
        for members in (unclean, gray, candidate, dark)
    ]
    keys = np.concatenate(sets)
    codes = np.repeat(
        np.array(ranked, dtype=np.uint8), [len(members) for members in sets]
    )
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    last = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=last[:-1])
    all_blocks, verdicts = keys[last], codes[order][last]

    dark_like = (verdicts == VERDICT_DARK) | (verdicts == VERDICT_CANDIDATE)
    streaks = np.ones(len(all_blocks), dtype=np.int64)
    since = np.full(len(all_blocks), day, dtype=np.int32)
    if history and dark_like.any():
        streaks[dark_like], since[dark_like] = _streak_history(
            all_blocks[dark_like], history, day
        )
    confidence = _streak_confidence(streaks)
    # Unclean/gray verdicts rest on directly observed traffic (a live
    # source, payload-bearing flows) rather than inference; score them
    # as single-day certainty.
    confidence[~dark_like] = 1.0

    return ClassificationSnapshot(
        day=day,
        blocks=all_blocks,
        verdicts=verdicts,
        confidence=confidence,
        since_day=since,
        asns=np.full(len(all_blocks), NO_ASN, dtype=np.int32),
        countries=np.full(len(all_blocks), NO_COUNTRY, dtype="S2"),
        provenance=dict(provenance or {}),
        family=family,
    )

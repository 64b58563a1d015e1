"""Mergeable per-/24 aggregation state for streaming inference.

The batch pipeline used to re-aggregate a whole vantage-day on every
run.  A :class:`PrefixAccumulator` replaces that with bounded-memory
streaming semantics:

* ``update_day(day, views, batch_rows)`` folds a day's views in, a
  batch of row slices (``batch_rows`` rows at most, or the whole day)
  per kernel call; ``update(chunk, vantage=..., day=...,
  sampling_factor=...)`` folds one bounded-size
  :class:`~repro.traffic.flows.FlowTable` chunk in as a one-slice
  batch;
* ``merge(other)`` combines two accumulators (associative — partial
  aggregates from different chunk orders, days or federation members
  combine into the same state);
* ``finalize(spoof_tolerance)`` emits the columnar
  :class:`FinalizedAggregates` that
  :func:`~repro.core.stages.run_funnel` classifies from.

Every statistic the seven-step pipeline needs is kept in mergeable
struct-of-arrays form: per-destination-IP TCP packet/byte estimates
(the per-IP survival fingerprint), per-day source-IP key sets (the
"never sent a packet" probe; keys only, and never merged across days,
since a verdict only asks whether an address is in any of them),
per-vantage per-/24 source packets (both with and without the
ignored-sender filter, so the spoofing tolerance can be derived from
the accumulator itself), and per-day per-/24 volume estimates (the
across-days median of the volume filter).

Sampled counts are integers, and so is every world preset's sampling
factor, so the partial sums are exact in float64 and a chunked fold
classifies **bit-identically** to a whole-day one — at chunk size 1,
97 or a whole day.  A non-integer factor (the ``missample`` fault)
makes a scaled sum depend on its order in the last bit; the execution
engine fixes that order for every plan (a day's batches in row order,
then the days in day order), so plans that batch a day alike agree bit
for bit whatever the factors.

Internally each keyed column family is a short list of *parts*, each
with strictly ascending unique keys — the shape every fold output and
every compaction has.  Parts are merged into one every
:data:`_COMPACT_EVERY` appends and at the end of a day folded in
several batches, so a fold stays O(batch) amortised and memory stays
O(distinct keys), not O(rows).  A day folded in one batch appends one
part to each of its families.

An accumulator has a compact columnar form:
:meth:`PrefixAccumulator.to_state` compacts every family to a single
part and returns plain numpy arrays keyed by stable names.  It is what
two accumulators are compared by (bit identity across plans and
kernels) and what the perf harness sizes the fold state from; nothing
decodes it.
"""

from __future__ import annotations

import time
from typing import Any, Mapping, Sequence

import numpy as np

from repro.core.kernels import get_kernel
from repro.net.family import FAMILY_IPV4, IPV4, family as _family_of
from repro.traffic.flows import FlowTable, aggregate_sums
from repro.vantage.sampling import VantageDayView

#: Parts a :class:`_KeyedSums` holds before it merges them into one.
_COMPACT_EVERY = 16

#: Sentinel chunk size: derive a day's batch size from the day's row
#: count (see :func:`adaptive_chunk_rows`).
AUTO_CHUNK = "auto"
#: :data:`AUTO_CHUNK`'s largest batch: a day of more rows is split.
_AUTO_CEILING = 1 << 18


def days_of(items: Sequence[Any], day_of) -> list[tuple[int, list[Any]]]:
    """``items`` grouped by ``day_of(item)``: days in order of first
    appearance, each day's items in their own order — a fold loop's
    batches, which never span days."""
    groups: dict[int, list[Any]] = {}
    for item in items:
        groups.setdefault(day_of(item), []).append(item)
    return list(groups.items())


def _empty_keys() -> np.ndarray:
    return np.empty(0, dtype=np.int64)


def adaptive_chunk_rows(total_rows: int) -> int | None:
    """Batch size for a day of ``total_rows`` rows over all its views.

    A day of up to :data:`_AUTO_CEILING` rows folds in one batch
    (``None``): one kernel call, one part per family and nothing to
    compact at the end of the day, which measured faster than every
    split.  A larger day is folded in ceiling-sized batches, so the
    fold's transient memory — radix scratch and the not-yet-trimmed
    outputs, a few dozen bytes per row — is bounded by one such batch,
    not by the day.
    """
    return None if total_rows <= _AUTO_CEILING else _AUTO_CEILING


def resolve_chunk_size(
    chunk_size: int | str | None, total_rows: int
) -> int | None:
    """Resolve the public ``chunk_size`` knob for one day.

    ``chunk_size`` bounds the rows of one fold batch: ``None`` folds
    the day (``total_rows`` over all its views) in one batch, an
    integer is used as-is, and :data:`AUTO_CHUNK` (``"auto"``) picks
    :func:`adaptive_chunk_rows`.
    """
    if chunk_size is None:
        return None
    if chunk_size == AUTO_CHUNK:
        return adaptive_chunk_rows(total_rows)
    if isinstance(chunk_size, str):
        raise ValueError(
            f"chunk_size must be an int, None or {AUTO_CHUNK!r}; "
            f"got {chunk_size!r}"
        )
    return chunk_size


class _KeyedSums:
    """Mergeable sorted ``int64 key -> float64 sums`` column family
    (with no value columns: a mergeable sorted key set).

    Every part has strictly ascending unique keys, so compaction is one
    :meth:`~repro.core.kernels.NumpyKernel.merge_sorted_parts` call:
    sums per key follow part order, which the native merges and the
    reference regroup of the concatenation reproduce bit for bit.
    """

    __slots__ = ("num_values", "kernel", "_parts")

    def __init__(self, num_values: int, kernel) -> None:
        self.num_values = num_values
        self.kernel = kernel
        self._parts: list[tuple[np.ndarray, tuple[np.ndarray, ...]]] = []

    def add(self, keys: np.ndarray, *values: np.ndarray) -> None:
        """Append one keyed part; ``keys`` must ascend strictly."""
        if len(values) != self.num_values:
            raise ValueError(
                f"expected {self.num_values} value column(s), got {len(values)}"
            )
        keys = np.asarray(keys, dtype=np.int64)
        if len(keys) == 0:
            return
        self._parts.append(
            (keys, tuple(np.asarray(v, dtype=np.float64) for v in values))
        )
        if len(self._parts) >= _COMPACT_EVERY:
            self.compacted()

    def absorb(self, other: "_KeyedSums") -> None:
        """Merge another family in (the other keeps its logical state):
        one compacted part crosses over, not the other's part list."""
        keys, values = other.compacted()
        self.add(keys, *values)

    def copy(self) -> "_KeyedSums":
        """An independent copy (parts share immutable arrays)."""
        duplicate = _KeyedSums(self.num_values, self.kernel)
        duplicate._parts = list(self._parts)
        return duplicate

    def compacted(self) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """Merge all parts into one; returns (and keeps) that part."""
        if not self._parts:
            return _empty_keys(), tuple(
                np.empty(0, dtype=np.float64) for _ in range(self.num_values)
            )
        if len(self._parts) > 1:
            self._parts = [self.kernel.merge_sorted_parts(self._parts)]
        return self._parts[0]


def _median_across(columns: Sequence[np.ndarray]) -> np.ndarray:
    """``np.median(np.stack(columns), axis=0)``, bit for bit, from
    compare-exchanges.

    An odd-even transposition network (``len(columns)`` rounds of
    ``np.minimum`` / ``np.maximum`` on neighbouring columns) sorts every
    position's values across the columns; the median is then the middle
    column, or ``(a + b) / 2`` of the two middle ones — the mean
    ``np.median`` takes of the same two order statistics.
    """
    columns = list(columns)
    width = len(columns)
    for round_ in range(width):
        for low in range(round_ % 2, width - 1, 2):
            pair = columns[low], columns[low + 1]
            columns[low], columns[low + 1] = np.minimum(*pair), np.maximum(*pair)
    middle = width // 2
    if width % 2:
        return columns[middle]
    return (columns[middle - 1] + columns[middle]) / 2


def _window_volume(
    day_tables: Sequence[tuple[np.ndarray, tuple[np.ndarray]]], kernel
) -> tuple[np.ndarray, np.ndarray]:
    """``(blocks, median estimate)`` over a window's per-day volume
    tables (day order), a day without a block counting 0.0.

    One keyed merge aligns the days: each day's table is widened to one
    column per day — its estimates in its own column, 0.0 in the others
    — so the merged columns hold each day's estimate of each block of
    the union, or 0.0 where the day lacks it.  Exactly so: a merge sums
    from 0.0, every estimate is >= 0, and adding +0.0 changes none.
    """
    width = len(day_tables)
    if width == 1:
        # One day in the window (every batch run, every online per-day
        # inference): its compacted table is the answer.
        blocks, (estimates,) = day_tables[0]
        return blocks, estimates
    parts = []
    for day, (blocks, (estimates,)) in enumerate(day_tables):
        if len(blocks):
            zeros = np.zeros(len(blocks))
            parts.append((blocks, tuple(
                estimates if column == day else zeros for column in range(width)
            )))
    if not parts:
        return _empty_keys(), np.empty(0)
    blocks, columns = kernel.merge_sorted_parts(parts)
    return blocks, _median_across(columns)


class FinalizedAggregates:
    """Columnar output of :meth:`PrefixAccumulator.finalize`.

    The pooled, tolerance-applied statistics the funnel consumes;
    the streaming equivalent of what the batch pipeline used to pool
    from whole vantage-day views.  Every key column ascends strictly.
    """

    __slots__ = (
        "dst_ips",
        "ip_tcp_pkts_est",
        "ip_tcp_bytes_est",
        "src_ips_by_day",
        "vol_blocks",
        "vol_median_est",
        "unforgiven_src_blocks",
        "applied_tolerances",
        "family",
        "block_shift",
    )

    def __init__(
        self,
        dst_ips: np.ndarray,
        ip_tcp_pkts_est: np.ndarray,
        ip_tcp_bytes_est: np.ndarray,
        src_ips_by_day: tuple[np.ndarray, ...],
        vol_blocks: np.ndarray,
        vol_median_est: np.ndarray,
        unforgiven_src_blocks: np.ndarray,
        applied_tolerances: dict[str, float],
        family: str = "ipv4",
        block_shift: int = 8,
    ) -> None:
        self.dst_ips = dst_ips
        self.ip_tcp_pkts_est = ip_tcp_pkts_est
        self.ip_tcp_bytes_est = ip_tcp_bytes_est
        #: One sorted source-key set per day of the window, day order.
        self.src_ips_by_day = src_ips_by_day
        self.vol_blocks = vol_blocks
        self.vol_median_est = vol_median_est
        #: Blocks holding a source some vantage sent more packets from
        #: than its tolerance forgives.
        self.unforgiven_src_blocks = unforgiven_src_blocks
        self.applied_tolerances = applied_tolerances
        self.family = family
        self.block_shift = block_shift


class PrefixAccumulator:
    """Mergeable streaming per-block aggregation state.

    The accumulator is address-family generic: it adopts the family of
    the first chunk it folds (v4 construction sites need no change) and
    rejects chunks or merges from a different family afterwards.  An
    explicit ``family`` pins it up front.
    """

    def __init__(
        self,
        ignore_sources_from_asns: frozenset[int] = frozenset(),
        kernel=None,
        family: str | None = None,
    ) -> None:
        self.ignore_sources_from_asns = frozenset(ignore_sources_from_asns)
        self._family_name: str | None = None
        self._family = None
        if family is not None:
            self._adopt_family(family)
        # A knob value (``None`` is ``auto``, as for the engine) or a
        # backend the engine already resolved.
        self.kernel = (
            get_kernel(kernel)
            if kernel is None or isinstance(kernel, str)
            else kernel
        )
        self._ignored_asns = (
            np.fromiter(self.ignore_sources_from_asns, dtype=np.int32)
            if self.ignore_sources_from_asns
            else None
        )
        # dst IP -> (tcp pkts est, tcp bytes est)
        self._dst_ip_sums = _KeyedSums(2, self.kernel)
        # vantage -> src /24 -> (filtered sampled pkts, raw sampled pkts)
        self._src_by_vantage: dict[str, _KeyedSums] = {}
        # day -> dst /24 -> estimated total packets
        self._volume_by_day: dict[int, _KeyedSums] = {}
        # day -> src IP keys (ignored senders filtered out)
        self._src_ips_by_day: dict[int, _KeyedSums] = {}
        self._days_by_vantage: dict[str, set[int]] = {}

    # -- address family ------------------------------------------------

    @property
    def family(self) -> str:
        """The adopted family name (``"ipv4"`` until anything else is)."""
        return self._family_name or FAMILY_IPV4

    @property
    def address_family(self):
        """The adopted :class:`~repro.net.family.AddressFamily` (v4 default)."""
        return self._family if self._family is not None else IPV4

    def _adopt_family(self, name: str) -> None:
        if self._family_name is None:
            self._family_name = name
            self._family = _family_of(name)
        elif name != self._family_name:
            raise ValueError(
                f"cannot mix address families in one accumulator: "
                f"{self._family_name} already adopted, got {name}"
            )

    # -- ingestion -----------------------------------------------------

    def observe(self, vantage: str, day: int) -> None:
        """Record that a vantage reported on a day (even with no rows).

        Mirrors the batch pipeline, where an empty view still claims a
        window tolerance and a volume-matrix row for its day.
        """
        self._days_by_vantage.setdefault(vantage, set()).add(day)
        if vantage not in self._src_by_vantage:
            self._src_by_vantage[vantage] = _KeyedSums(2, self.kernel)
        if day not in self._volume_by_day:
            self._volume_by_day[day] = _KeyedSums(1, self.kernel)
            self._src_ips_by_day[day] = _KeyedSums(0, self.kernel)

    def update(
        self,
        chunk: FlowTable,
        *,
        vantage: str,
        day: int,
        sampling_factor: float = 1.0,
    ) -> "PrefixAccumulator":
        """Fold one flow chunk of a vantage-day in; returns ``self``."""
        self.observe(vantage, day)
        self._fold_batch(day, [(vantage, float(sampling_factor), chunk)])
        return self

    def update_day(
        self,
        day: int,
        views: Sequence[VantageDayView],
        batch_rows: int | None = None,
        on_batch=None,
        on_view=None,
    ) -> "PrefixAccumulator":
        """Fold one day's views in.

        This is the one fold loop: the execution engine runs it once
        per day, on a fresh partial, with the ``batch_rows`` the plan
        resolved for the day.  The views' rows, view after view, are cut
        into batches of at most ``batch_rows`` rows (``None``: the whole
        day in one batch), and each batch is one kernel call — one
        destination part, one volume part and one source-key set for
        the batch, one raw part per slice — so a day folded in one
        batch leaves ``finalize`` nothing to merge in those families.
        A batch never spans days.  A day folded in several batches ends
        with its families compacted, so its parts never outlive the day
        that produced them.  ``on_batch(rows, seconds)`` is called after
        each folded batch and ``on_view(view, seconds)`` after each
        view's rows are read — the execution engine's observability
        hooks.
        """
        pending: list[tuple[str, float, FlowTable]] = []
        pending_rows = 0

        def fold_pending() -> float:
            nonlocal pending, pending_rows
            started = time.perf_counter()
            self._fold_batch(day, pending)
            seconds = time.perf_counter() - started
            if on_batch is not None:
                on_batch(pending_rows, seconds)
            pending, pending_rows = [], 0
            return seconds

        for view in views:
            if view.day != day:
                raise ValueError(
                    f"a batch never spans days: {view.vantage}@d{view.day} "
                    f"in the batch of day {day}"
                )
            self.observe(view.vantage, day)
            started = time.perf_counter()
            folding = 0.0
            for chunk in view.iter_chunks(batch_rows):
                while chunk is not None:
                    room = len(chunk) if batch_rows is None else (
                        batch_rows - pending_rows
                    )
                    piece, chunk = (chunk, None) if room >= len(chunk) else (
                        chunk.slice_rows(0, room),
                        chunk.slice_rows(room, len(chunk)),
                    )
                    pending.append(
                        (view.vantage, float(view.sampling_factor), piece)
                    )
                    pending_rows += len(piece)
                    if pending_rows == batch_rows:
                        folding += fold_pending()
            if on_view is not None:
                on_view(view, time.perf_counter() - started - folding)
        if pending:
            fold_pending()
        if batch_rows is not None:
            self._dst_ip_sums.compacted()
            self._volume_by_day[day].compacted()
            self._src_ips_by_day[day].compacted()
            for vantage in {view.vantage for view in views}:
                self._src_by_vantage[vantage].compacted()
        return self

    def _fold_batch(
        self, day: int, slices: Sequence[tuple[str, float, FlowTable]]
    ) -> None:
        """Fold one batch of a day's ``(vantage, factor, rows)`` slices
        (every vantage already observed) with one kernel call."""
        slices = [piece for piece in slices if len(piece[2])]
        if not slices:
            return
        for _, _, rows in slices:
            self._adopt_family(rows.family)
        # One kernel call folds every keyed part of the batch: the
        # per-dst-key sums, the block volumes and the source keys once
        # for the batch, the raw block source regroup once per slice.
        # Every part comes back sorted-unique, the shape every family
        # part must have.
        dst, vol, src, raws = self.kernel.fold_batch(
            [
                (rows.src_ip, rows.dst_ip, rows.proto, rows.packets, rows.bytes)
                for _, _, rows in slices
            ],
            [factor for _, factor, _ in slices],
            self._family.key_block_shift,
        )
        self._dst_ip_sums.add(dst[0], *dst[1])
        self._volume_by_day[day].add(vol[0], *vol[1])
        if self._ignored_asns is None:
            self._src_ips_by_day[day].add(src[0])
            for (vantage, _, _), (raw_blocks, (raw_pkts,)) in zip(slices, raws):
                self._src_by_vantage[vantage].add(raw_blocks, raw_pkts, raw_pkts)
            return

        # Ignored senders: the raw column keeps every source, the
        # filtered column and the source keys see only kept rows.  The
        # kept sources' blocks ascend but repeat, so they are grouped
        # into a sorted-unique part (integer sums: exact) first.
        for (vantage, _, rows), (raw_blocks, (raw_pkts,)) in zip(slices, raws):
            kept = rows.filter(~np.isin(rows.sender_asn, self._ignored_asns))
            src_ips, (src_pkts,) = aggregate_sums(
                kept.src_ip.astype(np.int64), kept.packets
            )
            src_blocks, (block_pkts,) = aggregate_sums(
                self._family.block_of(src_ips), src_pkts
            )
            per_vantage = self._src_by_vantage[vantage]
            per_vantage.add(raw_blocks, np.zeros(len(raw_blocks)), raw_pkts)
            per_vantage.add(src_blocks, block_pkts, np.zeros(len(src_blocks)))
            self._src_ips_by_day[day].add(src_ips)

    # -- combination ---------------------------------------------------

    def merge(self, other: "PrefixAccumulator") -> "PrefixAccumulator":
        """Fold another accumulator in (in place); returns ``self``.

        ``other`` is left untouched, so per-day partials can be merged
        into many different windows.  Merging is associative and
        commutative up to float summation order — exact for the
        integer-valued counts the pipeline tracks.  Source key sets
        union per day only: a window of distinct days merges none.
        """
        if other.ignore_sources_from_asns != self.ignore_sources_from_asns:
            raise ValueError(
                "cannot merge accumulators with different ignored-sender sets"
            )
        if other._family_name is not None:
            self._adopt_family(other._family_name)
        self._dst_ip_sums.absorb(other._dst_ip_sums)
        for mine, theirs in (
            (self._src_by_vantage, other._src_by_vantage),
            (self._volume_by_day, other._volume_by_day),
            (self._src_ips_by_day, other._src_ips_by_day),
        ):
            for key, family in theirs.items():
                if key not in mine:
                    mine[key] = _KeyedSums(family.num_values, self.kernel)
                mine[key].absorb(family)
        for vantage, days in other._days_by_vantage.items():
            self._days_by_vantage.setdefault(vantage, set()).update(days)
        return self

    @classmethod
    def merged(
        cls, accumulators: Sequence["PrefixAccumulator"]
    ) -> "PrefixAccumulator":
        """A fresh accumulator, with the first one's ignored-sender set
        and kernel, holding the merge of ``accumulators`` (each left
        untouched, as :meth:`merge` leaves it)."""
        first = accumulators[0]
        total = cls(first.ignore_sources_from_asns, first.kernel)
        for accumulator in accumulators:
            total.merge(accumulator)
        return total

    def compact(self) -> "PrefixAccumulator":
        """Collapse every column family to a single grouped part.

        Safe (and cheap) to call at any time: compaction is the
        accumulator's normal maintenance.  Returns ``self``.
        """
        self._dst_ip_sums.compacted()
        for families in (
            self._src_by_vantage, self._volume_by_day, self._src_ips_by_day
        ):
            for sums in families.values():
                sums.compacted()
        return self

    def copy(self) -> "PrefixAccumulator":
        """An independent copy safe to merge elsewhere."""
        duplicate = PrefixAccumulator(
            self.ignore_sources_from_asns, self.kernel, family=self._family_name,
        )
        duplicate._dst_ip_sums = self._dst_ip_sums.copy()
        duplicate._src_by_vantage = {
            vantage: sums.copy() for vantage, sums in self._src_by_vantage.items()
        }
        duplicate._volume_by_day = {
            day: sums.copy() for day, sums in self._volume_by_day.items()
        }
        duplicate._src_ips_by_day = {
            day: sums.copy() for day, sums in self._src_ips_by_day.items()
        }
        duplicate._days_by_vantage = {
            vantage: set(days) for vantage, days in self._days_by_vantage.items()
        }
        return duplicate

    # -- columnar form ------------------------------------------------

    def to_state(self) -> dict[str, Any]:
        """Compact columnar form of this accumulator.

        Every family is compacted to a single grouped part and returned
        as raw numpy arrays under stable keys — no part lists,
        no Python object graph — so the form costs O(distinct keys).
        The accumulator itself stays usable (compaction is its normal
        maintenance).
        """
        def part(sums: _KeyedSums) -> tuple[np.ndarray, ...]:
            keys, values = sums.compacted()
            return (keys, *values)

        return {
            # The *adopted* family (None while empty).
            "family": self._family_name,
            "ignore_sources_from_asns": tuple(
                sorted(self.ignore_sources_from_asns)
            ),
            "dst_ip_sums": part(self._dst_ip_sums),
            "src_by_vantage": {
                vantage: part(sums)
                for vantage, sums in self._src_by_vantage.items()
            },
            "volume_by_day": {
                int(day): part(sums)
                for day, sums in self._volume_by_day.items()
            },
            # One ``(keys,)`` tuple per day: key sets, no columns.
            "src_ips_by_day": {
                int(day): part(sums)
                for day, sums in self._src_ips_by_day.items()
            },
            "days_by_vantage": {
                vantage: tuple(sorted(days))
                for vantage, days in self._days_by_vantage.items()
            },
        }

    # -- introspection -------------------------------------------------

    def is_empty(self) -> bool:
        """True when no vantage-day has been observed at all."""
        return not self._days_by_vantage

    def days(self) -> list[int]:
        """Sorted days with at least one observation."""
        return sorted(self._volume_by_day)

    def observed_blocks(self) -> np.ndarray:
        """Sorted blocks that received any traffic."""
        dst_ips, _ = self._dst_ip_sums.compacted()
        # Sorted-unique keys give non-decreasing blocks: keep each run's head.
        blocks = self.address_family.block_of(dst_ips)
        heads = np.ones(len(blocks), dtype=bool)
        np.not_equal(blocks[1:], blocks[:-1], out=heads[1:])
        return blocks[heads]

    def vantage_source_blocks(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Per vantage: (src /24 blocks, *raw* pooled sampled packets).

        Raw means before the ignored-sender filter — the input the
        unrouted-space spoofing tolerance is derived from.
        """
        result = {}
        for vantage, sums in self._src_by_vantage.items():
            blocks, (_, raw) = sums.compacted()
            result[vantage] = (blocks, raw)
        return result

    # -- finalisation --------------------------------------------------

    def finalize(
        self, spoof_tolerance: float | Mapping[str, float] = 0.0
    ) -> FinalizedAggregates:
        """Pool the partial aggregates into classification columns.

        ``spoof_tolerance`` follows the pipeline-config convention: a
        scalar is a per-day allowance scaled by each vantage's window
        length; a mapping gives whole-window allowances per vantage.
        Finalising does not consume the accumulator — more chunks may
        be folded in and a fresh finalize taken later.
        """
        dst_ips, (tcp_pkts, tcp_bytes) = self._dst_ip_sums.compacted()

        # A block is unforgiven when some vantage's filtered packets
        # exceed its tolerance: the same blocks as a pooled excess
        # sum_v max(filtered - tolerance, 0) > 0, since each term is a
        # finite double >= 0 that is > 0 exactly when filtered >
        # tolerance, and a sum of such terms is > 0 exactly when one is.
        applied: dict[str, float] = {}
        unforgiven = _KeyedSums(0, self.kernel)
        for vantage, sums in self._src_by_vantage.items():
            blocks, (filtered, _) = sums.compacted()
            tolerance = self._tolerance_of(spoof_tolerance, vantage)
            applied[vantage] = tolerance
            unforgiven.add(blocks[filtered > tolerance])

        vol_blocks, vol_median_est = _window_volume(
            [self._volume_by_day[day].compacted() for day in self.days()],
            self.kernel,
        )

        return FinalizedAggregates(
            dst_ips=dst_ips,
            ip_tcp_pkts_est=tcp_pkts,
            ip_tcp_bytes_est=tcp_bytes,
            src_ips_by_day=tuple(
                self._src_ips_by_day[day].compacted()[0] for day in self.days()
            ),
            vol_blocks=vol_blocks,
            vol_median_est=vol_median_est,
            unforgiven_src_blocks=unforgiven.compacted()[0],
            applied_tolerances=applied,
            family=self.family,
            block_shift=self.address_family.key_block_shift,
        )

    def _tolerance_of(
        self, spoof_tolerance: float | Mapping[str, float], vantage: str
    ) -> float:
        if isinstance(spoof_tolerance, Mapping):
            return float(spoof_tolerance.get(vantage, 0.0))
        # A scalar is per day; scale to this vantage's window length.
        return float(spoof_tolerance) * len(self._days_by_vantage[vantage])

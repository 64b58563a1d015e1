"""Kernel registry: the ``kernel=auto|numpy`` execution knob.

Two backends compute the accumulator's hot loops:

* ``numpy`` — the reference, :class:`NumpyKernel`: the batched fold
  of a day's row slices (``fold_batch``), the ``np.unique`` +
  per-column ``np.bincount`` regroup (``group_sum``), the regroup of
  sorted-unique parts (``merge_sorted_parts``) and the funnel's address
  pass (``address_pass``).  This arithmetic is written in numpy here and
  nowhere else; the accumulator has no regroup of its own.
* ``native`` — :class:`NativeKernel`, over ``_kernels.c`` built as a
  CPython extension module: a fused radix-sort fold of a whole batch of
  slices in one call, merges of sorted parts (linear for two, the fold's
  radix sort-reduce for more) and the address pass — the ops the layer
  budget shows earning their C (the funnel's block-axis masks are numpy
  under either backend, and so is the regroup behind a decline).  Its
  functions take numpy arrays, and lists of column tuples, of ``(keys,
  cols)`` parts or of key arrays, through the buffer protocol; they check
  every array in C (dtype, 1-d, lengths, C-contiguous, output and scratch
  room), drop the GIL, and return counts, or ``None`` for a decline, which
  the reference then takes.  One call costs a few microseconds of
  boundary, not the tens that per-argument ctypes conversion cost
  (docs/architecture.md has the per-call table).  The same module
  checksums flowpack columns (:func:`crc32_columns`: zlib's CRC-32 values,
  one C call per segment) and parses plain flow-CSV blocks
  (:func:`parse_csv_block`: one C pass from a block's bytes to one typed
  array per column, declining every block its ``np.loadtxt`` reference
  declines).  The source is compiled once per source hash
  and interpreter ABI with the system C compiler against the interpreter's
  own headers (cached under ``~/.cache/repro/kernels`` as
  ``_kernels-<hash><EXT_SUFFIX>``) and needs no Python dependency.  It
  exists only when that module loaded: a :class:`NativeKernel` always
  runs C, short of a decline.

**Identity contract.**  Both backends produce bit-identical
classifications: native kernels accumulate per-key sums in original
row order and merge parts left-to-right — the same float operation
order as ``np.bincount`` over concatenated parts — and the batched
fold adds each slice's scaled sums to a key's total in slice order, as
the reference's regroup of the per-slice parts does, so every sum is
reproduced bit for bit, for any sampling factors.  The contract is
gated by the parity suite (``tests/core/test_kernels.py``), which
includes the
numpy = native = forced-fallback identity check on a micro world.

The knob is resolved in one place, :func:`get_kernel`; ``auto`` falls
back to the reference, with the reason, when the module did not load.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.machinery
import importlib.util
import os
import shutil
import subprocess
import sysconfig
import tempfile
import threading
import warnings
import zlib
from io import BytesIO
from pathlib import Path
from typing import Any

import numpy as np

from repro.net.blocksets import sorted_member_mask
from repro.traffic.flows import aggregate_sums
from repro.traffic.packets import PROTO_TCP

__all__ = [
    "KERNEL_CHOICES",
    "DISABLE_NATIVE_ENV",
    "NumpyKernel",
    "NativeKernel",
    "crc32_columns",
    "parse_csv_block",
    "get_kernel",
    "native_provider",
]

#: Accepted values of the ``kernel`` execution knob.
KERNEL_CHOICES = ("auto", "numpy")

#: Set (to any non-empty value) to disable the native provider — the
#: supported way to make ``auto`` fall back to the reference.
DISABLE_NATIVE_ENV = "REPRO_DISABLE_NATIVE_KERNEL"

#: Override the on-disk cache directory for the compiled extension module.
CACHE_DIR_ENV = "REPRO_KERNEL_CACHE"


def concat_parts(parts):
    """Concatenate keyed parts (``(keys, cols)`` each) into one part."""
    keys = np.concatenate([part[0] for part in parts])
    columns = tuple(
        np.concatenate([part[1][i] for part in parts])
        for i in range(len(parts[0][1]))
    )
    return keys, columns


class NumpyKernel:
    """The reference backend — extracted, unchanged numpy semantics."""

    name = "numpy"
    provider = "numpy"
    #: Why ``auto`` resolved to the reference (see :func:`get_kernel`).
    fallback_reason: str | None = None

    def fold_batch(self, slices, factors, block_shift: int = 8):
        """The batched fold: a batch of one day's row slices in one call.

        ``slices`` holds one ``(src_ip, dst_ip, proto, packets, bytes_)``
        column tuple per slice (a run of one vantage's rows; one slice at
        least), ``factors`` one sampling factor per slice.  Returns ``(dst,
        vol, src, raws)``, each part ``(keys, cols)``: per-dst-key (tcp pkts,
        tcp bytes) estimates and the per-block volume estimate of total
        packets over the whole batch, the batch's source keys (no columns: no
        verdict reads a per-source sum), and one raw per-block source regroup
        of sampled packets per slice — what
        :meth:`~repro.core.accum.PrefixAccumulator.update_day` appends for a
        batch (under an ignored-sender filter it replaces the source side
        with the filtered rows).  ``block_shift`` is the family's
        key-to-block shift (8 for IPv4 /24s, 16 for IPv6 /48 sites over /64
        keys).

        The reference semantics: each slice folded alone (unscaled
        integer sums, times its factor), then the slices' parts
        group-summed in slice order — the float operation order of the
        per-slice parts merged left to right, for any factors.
        """
        if len(factors) != len(slices):
            raise ValueError(
                f"{len(factors)} factors for {len(slices)} slices"
            )
        parts = [
            self._fold_slice(*columns, float(factor), block_shift)
            for columns, factor in zip(slices, factors)
        ]
        if len(parts) == 1:
            dst, vol, src, raw = parts[0]
            return dst, vol, src, [raw]
        return (
            self.group_sum(*concat_parts([part[0] for part in parts])),
            self.group_sum(*concat_parts([part[1] for part in parts])),
            (np.unique(np.concatenate([part[2][0] for part in parts])), ()),
            [part[3] for part in parts],
        )

    @staticmethod
    def _fold_slice(src_ip, dst_ip, proto, packets, bytes_, factor,
                    block_shift):
        """One slice's four keyed parts: the per-key and per-block sums
        of :meth:`fold_batch` before any other slice joins them."""
        is_tcp = proto == PROTO_TCP
        dst_ips, (tcp_pkts, tcp_bytes, total_pkts) = aggregate_sums(
            dst_ip.astype(np.int64),
            np.where(is_tcp, packets, 0),
            np.where(is_tcp, bytes_, 0),
            packets,
        )
        # Re-group the per-key sums by block instead of sorting the raw
        # rows a second time: the unique-key table is far smaller than
        # the slice, and integer sums regroup exactly.
        vol_blocks, (vol_pkts,) = aggregate_sums(dst_ips >> block_shift, total_pkts)
        src_ips, (src_pkts,) = aggregate_sums(src_ip.astype(np.int64), packets)
        raw_blocks, (raw_pkts,) = aggregate_sums(src_ips >> block_shift, src_pkts)
        return (
            (dst_ips, (tcp_pkts * factor, tcp_bytes * factor)),
            (vol_blocks, (vol_pkts * factor,)),
            (src_ips, ()),
            (raw_blocks, (np.asarray(raw_pkts, dtype=np.float64),)),
        )

    def group_sum(self, keys: np.ndarray, values: tuple[np.ndarray, ...]):
        """Group-by-sum one keyed part into ascending unique keys.

        The reference regroup behind :meth:`fold_batch` and
        :meth:`merge_sorted_parts`: float64 sums accumulated in row
        order via ``np.bincount``.
        """
        unique_keys, inverse = np.unique(keys, return_inverse=True)
        # np.bincount of no rows is int64 even with weights: the cast
        # keeps an empty part's sums float64 like every other part's.
        sums = tuple(
            np.bincount(
                inverse, weights=column, minlength=len(unique_keys)
            ).astype(np.float64, copy=False)
            for column in values
        )
        return unique_keys, sums

    def merge_sorted_parts(self, parts):
        """Group-sum sorted-unique parts (list of ``(keys, cols)``).

        The reference concatenates and re-groups; sums per key follow
        part order — the order the native backend's linear merge
        reproduces.
        """
        return self.group_sum(*concat_parts(parts))

    def address_pass(
        self,
        dst_ips: np.ndarray,
        tcp_pkts: np.ndarray,
        tcp_bytes: np.ndarray,
        block_shift: int,
        source_blocks: np.ndarray,
        source_days: list[np.ndarray],
        avg_size_threshold: float,
        ip_size_threshold: float,
    ):
        """The funnel's address axis folded onto its block axis.

        ``dst_ips`` must ascend strictly (``finalize`` emits nothing
        else); ``source_blocks`` are the sorted blocks holding
        unforgiven sources and ``source_days`` one sorted source-key
        set per day.  Returns six block-axis columns: block ids, TCP
        packet and byte sums (``np.bincount`` order), and three masks —
        holds unforgiven sources; some address survives (TCP, mean
        size within ``ip_size_threshold``, never a source); some
        address fails (TCP over that size).  Addresses are probed
        against the source sets only inside blocks that pass the
        funnel's steps 1-2 (``avg_size_threshold``) and hold unforgiven
        sources: a block failing either step is out whatever its
        addresses do, and classify calls one with unforgiven sources
        gray without reading them.
        """
        if not np.all(dst_ips[1:] > dst_ips[:-1]):
            raise ValueError("finalized columns must be sorted by destination key")
        ip_blocks = dst_ips >> block_shift
        firsts = np.ones(len(ip_blocks), dtype=bool)
        np.not_equal(ip_blocks[1:], ip_blocks[:-1], out=firsts[1:])
        starts = np.flatnonzero(firsts)
        blocks = ip_blocks[starts]
        position = np.cumsum(firsts) - 1
        block_pkts, block_bytes = (
            np.bincount(position, weights=column, minlength=len(blocks))
            .astype(np.float64, copy=False)
            for column in (tcp_pkts, tcp_bytes)
        )
        sourced = sorted_member_mask(blocks, source_blocks)
        any_tcp = block_pkts > 0
        has_tcp = tcp_pkts > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            block_avg = np.where(
                any_tcp, block_bytes / np.maximum(block_pkts, 1), np.inf
            )
            ip_avg = np.where(
                has_tcp, tcp_bytes / np.maximum(tcp_pkts, 1), np.inf
            )
        ip_size_ok = ip_avg <= ip_size_threshold
        passes = any_tcp & (block_avg <= avg_size_threshold)
        ip_is_source = (passes & sourced)[position]
        inside = np.flatnonzero(ip_is_source)
        probes = dst_ips[inside]
        seen = np.zeros(len(inside), dtype=bool)
        for keys in source_days:
            seen |= sorted_member_mask(probes, keys)
        ip_is_source[inside] = seen
        return (
            blocks,
            block_pkts,
            block_bytes,
            sourced,
            np.logical_or.reduceat(has_tcp & ip_size_ok & ~ip_is_source, starts),
            np.logical_or.reduceat(has_tcp & ~ip_size_ok, starts),
        )

    def describe(self) -> dict[str, Any]:
        """Provenance record (plans, snapshots, trace events)."""
        return {
            "name": self.name,
            "provider": self.provider,
            "fallback_reason": self.fallback_reason,
        }


# ---------------------------------------------------------------------------
# The native provider: _kernels.c as a CPython extension module
# ---------------------------------------------------------------------------

#: Address dtype -> bytes of the widest radix record ``fold_batch`` can
#: sort keys of that width in.  32-bit keys always fit 12-byte records;
#: a 64-bit key range wider than 32 bits needs 16.
_FOLD_RECORD_BYTES = {np.dtype(np.uint32): 12, np.dtype(np.uint64): 16}


class _Staging(threading.local):
    """Pooled radix scratch (fold and k-way merge), one pool per thread.

    The extension drops the GIL for the C call, and a parallel plan
    (:func:`~repro.core.engine.execute_plan`) folds one day per thread
    through :class:`NativeKernel`, so those threads must not share
    buffers.  Thread-local rather than a lock:
    a lock would serialise the pool's C calls, which run concurrently
    only because each thread has its own scratch.
    """

    def __init__(self) -> None:
        self.pool = np.empty(0, dtype=np.uint8)

    def scratch(self, nbytes: int) -> np.ndarray:
        """At least ``nbytes`` of radix scratch (the C never allocates)."""
        if len(self.pool) < nbytes:
            self.pool = np.empty(nbytes, dtype=np.uint8)
        return self.pool

    def buffers(
        self, rows: int, record_bytes: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """The two radix scratch buffers, ``rows`` records each."""
        need = record_bytes * max(rows, 1)
        pool = self.scratch(2 * need)
        return pool[:need], pool[need:2 * need]


#: The process's one scratch pool, shared by every :class:`NativeKernel`.
_STAGING = _Staging()


def _trimmed(count: int, *arrays: np.ndarray) -> None:
    """Shrink freshly allocated outputs to their first ``count`` rows.

    Shrinking an array nothing else references is a realloc, not a
    copy, and rows the C never wrote were never touched: the parts the
    accumulator keeps hold no slack and cost no staging copy.
    """
    for array in arrays:
        array.resize(count, refcheck=False)


class NativeKernel(NumpyKernel):
    """The compiled fold and sorted-part merges of the ``_kernels``
    extension module.

    ``ext`` is the loaded module.  It checks every array it is handed
    (dtype, 1-d, C-contiguous, lengths, capacity) and raises on a bad
    one; this class only hands it arrays it accepts, and sends any
    other layout, and every call the C declines, to the reference.
    """

    name = "native"
    provider = "cc"

    def __init__(self, ext) -> None:
        self._ext = ext

    def fold_batch(self, slices, factors, block_shift=8):
        # The fold is compiled for uint32 (IPv4) and uint64 (IPv6) keys
        # of one width; any other layout takes the reference path.
        record_bytes = (
            _FOLD_RECORD_BYTES.get(slices[0][1].dtype) if slices else None
        )
        if (
            record_bytes is not None
            and len(factors) == len(slices)
            and all(
                src_ip.dtype == slices[0][1].dtype
                and dst_ip.dtype == slices[0][1].dtype
                and proto.dtype == np.uint8
                and packets.dtype == np.int64
                and bytes_.dtype == np.int64
                for src_ip, dst_ip, proto, packets, bytes_ in slices
            )
        ):
            rows = sum(len(columns[1]) for columns in slices)
            # Outputs are the parts themselves, not staging: the C
            # writes each part's rows in place and the tail is trimmed.
            dst_keys, vol_keys, src_keys, raw_keys = (
                np.empty(rows, dtype=np.int64) for _ in range(4)
            )
            dst_pk, dst_by, vol_pk, raw_pk = (np.empty(rows) for _ in range(4))
            bufa, bufb = _STAGING.buffers(rows, record_bytes)
            counts = self._ext.fold_batch(
                [
                    tuple(np.ascontiguousarray(column) for column in columns)
                    for columns in slices
                ],
                np.asarray(factors, dtype=np.float64),
                block_shift,
                dst_keys, dst_pk, dst_by, vol_keys, vol_pk, src_keys,
                raw_keys, raw_pk, bufa, bufb,
            )
            # None: a count outside the record's packet or byte field
            # (31 bits, less the slice index's for packets; or
            # negative), or a batch whose packets total 2**53 or more,
            # where a run record's sum would stop being exact — the
            # reference path below takes the batch.
            if counts is not None:
                ndst, nvol, nsrc, raw_lengths = counts
                _trimmed(ndst, dst_keys, dst_pk, dst_by)
                _trimmed(nvol, vol_keys, vol_pk)
                _trimmed(nsrc, src_keys)
                _trimmed(sum(raw_lengths), raw_keys, raw_pk)
                raws, start = [], 0
                for length in raw_lengths:
                    raws.append((
                        raw_keys[start:start + length],
                        (raw_pk[start:start + length],),
                    ))
                    start += length
                return (
                    (dst_keys, (dst_pk, dst_by)),
                    (vol_keys, (vol_pk,)),
                    (src_keys, ()),
                    raws,
                )
        return super().fold_batch(slices, factors, block_shift)

    def merge_sorted_parts(self, parts):
        normalized = [
            (
                np.ascontiguousarray(keys, dtype=np.int64),
                tuple(
                    np.ascontiguousarray(c, dtype=np.float64)
                    for c in columns
                ),
            )
            for keys, columns in parts
        ]
        if len(normalized) == 1:
            return normalized[0]
        total = sum(len(keys) for keys, _ in normalized)
        out_keys = np.empty(total, dtype=np.int64)
        out_cols = tuple(
            np.empty(total, dtype=np.float64) for _ in normalized[0][1]
        )
        if len(normalized) == 2:
            count = self._ext.merge_sorted(normalized, out_keys, out_cols)
        else:
            # Room for two 16-byte radix records per input row.
            count = self._ext.merge_k(
                normalized, out_keys, out_cols,
                _STAGING.scratch(32 * total),
            )
        # None is the C declining the call — a part whose keys do not
        # ascend strictly, or a shape merge_k does not take: the
        # reference regroup takes it, as it takes a declined fold batch.
        if count is None:
            return super().merge_sorted_parts(parts)
        _trimmed(count, out_keys, *out_cols)
        return out_keys, out_cols

    def address_pass(self, dst_ips, tcp_pkts, tcp_bytes, block_shift,
                     source_blocks, source_days, avg_size_threshold,
                     ip_size_threshold):
        rows = len(dst_ips)
        columns = (
            np.empty(rows, dtype=np.int64),
            np.empty(rows, dtype=np.float64),
            np.empty(rows, dtype=np.float64),
            *(np.empty(rows, dtype=np.uint8) for _ in range(3)),
        )
        count = self._ext.address_pass(
            np.ascontiguousarray(dst_ips, dtype=np.int64),
            np.ascontiguousarray(tcp_pkts, dtype=np.float64),
            np.ascontiguousarray(tcp_bytes, dtype=np.float64),
            block_shift,
            np.ascontiguousarray(source_blocks, dtype=np.int64),
            [np.ascontiguousarray(keys, dtype=np.int64)
             for keys in source_days],
            avg_size_threshold, ip_size_threshold,
            *columns,
        )
        # None: keys not strictly ascending — the reference below
        # raises the named error.
        if count is not None:
            _trimmed(count, *columns)
            blocks, pkts, bytes_, *flags = columns
            return (blocks, pkts, bytes_, *(f.view(bool) for f in flags))
        return super().address_pass(
            dst_ips, tcp_pkts, tcp_bytes, block_shift, source_blocks,
            source_days, avg_size_threshold, ip_size_threshold,
        )


def crc32_columns(arrays) -> list[int]:
    """``zlib.crc32`` of each array's bytes, in order.

    Flowpack's per-column checksums, written and verified.  The native
    provider takes every array in one C call (a PCLMULQDQ fold);
    without it — disabled, no compiler, or a CPU the C declines — each
    array goes through ``zlib.crc32``.  The values are the same either
    way, so archives do not depend on which computed them.
    """
    arrays = [np.ascontiguousarray(array) for array in arrays]
    ext = _extension()[0]
    if ext is not None and arrays:
        crcs = np.empty(len(arrays), dtype=np.uint32)
        if ext.crc32_columns(arrays, crcs) is not None:
            return crcs.tolist()
    return [zlib.crc32(array) for array in arrays]


#: The only bytes a plain CSV block holds (``-`` for the signed columns'
#: negatives, such as an unknown ASN's -1).
_PLAIN_BYTES = b"0123456789,-\r\n"

#: A flow column's dtype -> its code in the C parser's kind table.
_CSV_KINDS = {
    np.dtype(dtype): code
    for dtype, code in (
        (np.uint8, "B"), (np.uint16, "H"), (np.uint32, "I"), (np.uint64, "Q"),
        (np.int32, "i"), (np.int64, "q"), (np.bool_, "?"),
    )
}


def parse_csv_block(
    block: bytes, dtypes: list[np.dtype]
) -> tuple[list[np.ndarray], int] | None:
    """A plain CSV block's rows as column arrays, with its line count.

    A block is plain when it holds only digits, commas, minus signs and
    newlines, and every CR is the first half of a CRLF.  It then has no
    plus sign, space, underscore, quote or comment, and its lines are
    exactly its LFs.  Blank lines are skipped, as ``csv.reader`` skips
    them.  Each field is read as uint64 in a uint64 column and as int64
    in any other, then range-checked against its column's dtype (the
    bool flag takes any integer).

    ``None`` when the block is not plain, or some row needs a per-row
    reader: a ragged row, an empty field, a misplaced or doubled ``-``,
    a ``-`` in a uint64 column, a value past the parse dtype or outside
    its column's, or no row at all.

    The native provider parses the block in one C pass straight into
    one array per column; without it — disabled, or no compiler — the
    ``np.loadtxt`` reference (:func:`_loadtxt_csv_block`) does.  Both
    return the same columns and decline the same blocks
    (``tests/core/test_kernels.py`` and ``tests/test_streaming.py``
    check it).
    """
    ext = _extension()[0]
    if ext is None:
        return _loadtxt_csv_block(block, dtypes)
    # A row takes a digit and a comma (or its line end) per column at
    # least, but the block's last may lack its line end.
    rows = (len(block) + 1) // (2 * len(dtypes))
    columns = [np.empty(rows, dtype=d) for d in dtypes]
    parsed = ext.parse_csv_block(
        block, "".join(_CSV_KINDS[np.dtype(d)] for d in dtypes).encode(),
        columns,
    )
    if parsed is None:
        return None
    rows, lines = parsed
    _trimmed(rows, *columns)
    return columns, lines


def _loadtxt_csv_block(
    block: bytes, dtypes: list[np.dtype]
) -> tuple[list[np.ndarray], int] | None:
    """:func:`parse_csv_block` through numpy's C text reader.

    This relies on ``np.loadtxt`` raising ``ValueError`` for any integer
    field that ``int()`` would not give the same value for: an empty
    field, a misplaced or doubled ``-``, a ``-`` in a uint64 column, or
    a value past the parse dtype.  Older numpy instead reads such a
    field through a float and warns with a ``DeprecationWarning``; that
    warning is raised as an error here, so it also hands over.
    """
    # A block of blank lines only would make loadtxt warn.
    if block.translate(None, _PLAIN_BYTES) or not block.strip(b"\r\n"):
        return None
    codes = np.frombuffer(block, dtype=np.uint8)
    lf, cr = codes == 10, codes == 13
    if cr[-1] or (cr[:-1] > lf[1:]).any():
        return None
    parse = np.dtype([
        (f"f{i}", np.uint64 if d == np.uint64 else np.int64)
        for i, d in enumerate(dtypes)
    ])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            records = np.loadtxt(
                BytesIO(block), delimiter=",", dtype=parse,
                comments=None, quotechar=None, ndmin=1,
            )
    except (ValueError, DeprecationWarning):
        return None
    columns = []
    for name, dtype in zip(parse.names, dtypes):
        values = records[name]
        if dtype != bool:
            info = np.iinfo(dtype)
            if values.min() < info.min or values.max() > info.max:
                return None
        columns.append(values.astype(dtype))
    return columns, int(np.count_nonzero(lf))


def _cache_dir() -> Path:
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    base = os.environ.get("XDG_CACHE_HOME") or str(Path.home() / ".cache")
    return Path(base) / "repro" / "kernels"


def _build(
    compiler: str, include: Path, source: Path, shared: Path
) -> str | None:
    """Compile ``source`` into ``shared`` atomically; the failure reason."""
    shared.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.NamedTemporaryFile(
        dir=shared.parent, suffix=".so", delete=False
    ) as handle:
        temp = handle.name
    try:
        result = subprocess.run(
            [compiler, "-O3", "-ffp-contract=off", "-shared", "-fPIC",
             f"-I{include}",
             "-o", temp, str(source)],
            capture_output=True,
            timeout=120,
        )
        if result.returncode != 0:
            detail = result.stderr.decode(errors="replace").strip()
            return f"{compiler} failed: {detail.splitlines()[-1] if detail else '?'}"
        os.replace(temp, shared)
        return None
    finally:
        # Gone after a successful replace; left behind by a failed or
        # raising (missing compiler, timeout) build.
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temp)


def _load_extension():
    """Build (once per source hash and interpreter ABI) and import
    ``_kernels.c``; ``(module, None)`` or ``(None, reason)``."""
    if os.environ.get(DISABLE_NATIVE_ENV):
        return None, f"disabled via {DISABLE_NATIVE_ENV}"
    source = Path(__file__).with_name("_kernels.c")
    if not source.exists():
        return None, "_kernels.c not packaged"
    digest = hashlib.sha256(source.read_bytes()).hexdigest()[:16]
    # The ABI suffix keys the build to this interpreter: another
    # Python sharing the cache directory builds and loads its own.
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    shared = _cache_dir() / f"_kernels-{digest}{suffix}"
    if not shared.exists():
        compiler = (
            os.environ.get("CC") or shutil.which("cc") or shutil.which("gcc")
        )
        if compiler is None:
            return None, "no C compiler on PATH"
        include = Path(sysconfig.get_paths()["include"])
        if not (include / "Python.h").is_file():
            return None, f"no Python.h in {include} (Python headers missing)"
        try:
            reason = _build(compiler, include, source, shared)
        except (OSError, subprocess.SubprocessError) as error:
            # Unwritable cache dir, missing compiler, build timeout.
            reason = f"{compiler} build failed: {error}"
        if reason is not None:
            return None, reason
    loader = importlib.machinery.ExtensionFileLoader("_kernels", str(shared))
    try:
        module = importlib.util.module_from_spec(
            importlib.util.spec_from_loader("_kernels", loader)
        )
        loader.exec_module(module)
    except (ImportError, OSError) as error:  # a corrupt build in the cache
        return None, f"cannot load {shared.name}: {error}"
    return module, None


# ---------------------------------------------------------------------------
# Resolution
# ---------------------------------------------------------------------------

#: ``(module, None)`` or ``(None, reason)`` from :func:`_load_extension`,
#: loaded once per process; the kernels, :func:`crc32_columns` and
#: :func:`parse_csv_block` all read it through :func:`_extension`.
_HANDLE: tuple[Any, str | None] | None = None
#: Day-pool threads may ask first: one of them builds and loads.
_LOADING = threading.Lock()


def _extension() -> tuple[Any, str | None]:
    """The extension module handle, loaded on first use."""
    global _HANDLE
    with _LOADING:
        if _HANDLE is None:
            _HANDLE = _load_extension()
        return _HANDLE


def get_kernel(name: str | None) -> NumpyKernel:
    """The backend a ``kernel`` knob value resolves to.

    ``numpy`` is the reference.  ``auto`` (and ``None``) is the native
    backend when the extension module loaded, and otherwise the
    reference, with ``fallback_reason`` saying why the module did not.
    """
    if name not in (None, *KERNEL_CHOICES):
        raise ValueError(
            f"kernel must be one of {', '.join(KERNEL_CHOICES)}; got {name!r}"
        )
    ext, reason = (None, None) if name == "numpy" else _extension()
    if ext is not None:
        return NativeKernel(ext)
    kernel = NumpyKernel()
    kernel.fallback_reason = reason
    return kernel


def native_provider() -> str | None:
    """The native backend's provider name, or None when the extension
    module did not load."""
    return NativeKernel.provider if _extension()[0] is not None else None

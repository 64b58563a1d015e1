"""Kernel registry: the ``kernel=numpy|native|auto`` execution knob.

Two backends compute the accumulator's hot loops:

* ``numpy`` — the reference, :class:`NumpyKernel`: the per-chunk fold
  (``fold_chunk``), the ``np.unique`` + per-column ``np.bincount``
  regroup (``group_sum``) and the regroup of sorted-unique parts
  (``merge_sorted_parts``).  This arithmetic is written in numpy here
  and nowhere else; the accumulator has no regroup of its own.
* ``native`` — :class:`NativeKernel`, the ctypes binding of
  ``_kernels.c``: a fused radix-sort fold and linear two-way / k-way
  merges of sorted parts, the two ops the layer budget shows earning
  their C (``group_sum`` of unsorted parts and the stage masks are
  numpy under either backend).  The source is compiled once with the
  system C compiler (cached under ``~/.cache/repro/kernels``) and
  needs no Python dependency; without a compiler the backend silently
  degrades to the reference (the engine emits a ``kernel`` trace event
  with the fallback reason).

**Identity contract.**  Both backends produce bit-identical
classifications: native kernels accumulate per-key sums in original
row order and merge parts left-to-right — the same float operation
order as ``np.bincount`` over concatenated parts — so for the
integer-valued counts the pipeline tracks (exact in float64) every
sum is reproduced bit for bit.  The contract is gated by the parity
suite (``tests/core/test_kernels.py``), which includes the
numpy = native = forced-fallback identity check on a micro world.

Backends are resolved by name through :func:`get_kernel`; ``auto``
picks ``native`` when the C library is available.  Resolution is
cached per process.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import Any

import numpy as np

from repro.traffic.flows import aggregate_sums
from repro.traffic.packets import PROTO_TCP

__all__ = [
    "KERNEL_CHOICES",
    "DISABLE_NATIVE_ENV",
    "NumpyKernel",
    "NativeKernel",
    "concat_parts",
    "get_kernel",
    "resolve_kernel_name",
    "native_provider",
]

#: Accepted values of the ``kernel`` execution knob.
KERNEL_CHOICES = ("auto", "numpy", "native")

#: Set (to any non-empty value) to disable the native provider — the
#: supported way to exercise the silent-fallback path.
DISABLE_NATIVE_ENV = "REPRO_DISABLE_NATIVE_KERNEL"

#: Override the on-disk cache directory for the compiled C library.
CACHE_DIR_ENV = "REPRO_KERNEL_CACHE"

#: Head-index capacity of the C ``merge_k``; more parts chain pairwise.
_MERGE_K_MAX_PARTS = 64


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
    fallback_reason: str | None = None

    def fold_chunk(
        self,
        src_ip: np.ndarray,
        dst_ip: np.ndarray,
        proto: np.ndarray,
        packets: np.ndarray,
        bytes_: np.ndarray,
        factor: float,
        block_shift: int = 8,
    ):
        """The fused per-chunk fold: four keyed parts in one call.

        Returns ``(dst, vol, src, raw)`` parts, each ``(keys, cols)``:
        per-dst-key (tcp pkts, tcp bytes, total pkts) estimates, the
        per-block volume regroup, per-src-key sampled packets, and the
        raw per-block source regroup — what
        :meth:`~repro.core.accum.PrefixAccumulator.update` appends for
        a chunk (under an ignored-sender filter it replaces the source
        side with the filtered sums).  ``block_shift`` is the family's
        key-to-block shift (8 for IPv4 /24s, 16 for IPv6 /48 sites over
        /64 keys).
        """
        is_tcp = proto == PROTO_TCP
        dst_ips, (tcp_pkts, tcp_bytes, total_pkts) = aggregate_sums(
            dst_ip.astype(np.int64),
            np.where(is_tcp, packets, 0),
            np.where(is_tcp, bytes_, 0),
            packets,
        )
        # Re-group the per-key sums by block instead of sorting the raw
        # rows a second time: the unique-key table is far smaller than
        # the chunk, and integer sums regroup exactly.
        vol_blocks, (vol_pkts,) = aggregate_sums(dst_ips >> block_shift, total_pkts)
        src_ips, (src_pkts,) = aggregate_sums(src_ip.astype(np.int64), packets)
        raw_blocks, (raw_pkts,) = aggregate_sums(src_ips >> block_shift, src_pkts)
        return (
            (
                dst_ips,
                (tcp_pkts * factor, tcp_bytes * factor, total_pkts * factor),
            ),
            (vol_blocks, (vol_pkts * factor,)),
            (src_ips, (np.asarray(src_pkts, dtype=np.float64),)),
            (raw_blocks, (np.asarray(raw_pkts, dtype=np.float64),)),
        )

    def group_sum(self, keys: np.ndarray, values: tuple[np.ndarray, ...]):
        """Group-by-sum one keyed part into ascending unique keys.

        The compaction math of :class:`~repro.core.accum._KeyedSums`:
        float64 sums accumulated in row order via ``np.bincount``.
        """
        unique_keys, inverse = np.unique(keys, return_inverse=True)
        sums = tuple(
            np.bincount(inverse, weights=column, minlength=len(unique_keys))
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

    def describe(self) -> dict[str, Any]:
        """Provenance record (plans, snapshots, trace events)."""
        return {
            "name": self.name,
            "provider": self.provider,
            "fallback_reason": self.fallback_reason,
        }


# ---------------------------------------------------------------------------
# The native provider: _kernels.c through ctypes
# ---------------------------------------------------------------------------

_I64 = ctypes.c_int64
_P_I64 = ctypes.POINTER(_I64)
_P_F64 = ctypes.POINTER(ctypes.c_double)
_PP_F64 = ctypes.POINTER(_P_F64)


# Argument types: contiguous 1-d numpy arrays, dtype-checked per call.
_U8, _KEYS, _SUMS = (
    np.ctypeslib.ndpointer(dtype=dtype, ndim=1, flags="C_CONTIGUOUS")
    for dtype in (np.uint8, np.int64, np.float64)
)
#: The fold's address columns: any dtype here, checked against
#: ``_FOLD_KEYS`` in :meth:`NativeKernel.fold_chunk`.
_ADDRS = np.ctypeslib.ndpointer(ndim=1, flags="C_CONTIGUOUS")

#: Address dtype -> (the key width ``fold_chunk`` reads it at, bytes of
#: the widest radix record that width can take).  32-bit keys always
#: fit 12-byte records; a 64-bit key range wider than 32 bits needs 16.
_FOLD_KEYS = {np.dtype(np.uint32): (32, 12), np.dtype(np.uint64): (64, 16)}


def _col_ptrs(columns):
    ptrs = (_P_F64 * len(columns))()
    for i, col in enumerate(columns):
        ptrs[i] = col.ctypes.data_as(_P_F64)
    return ptrs


class _Staging(threading.local):
    """Pooled scratch and output staging, one set per thread.

    ctypes drops the GIL for the C call, so two threads folding through
    the process-wide :class:`NativeKernel` must not share buffers.
    Thread-local rather than a lock: :mod:`repro.core.parallel` forks
    pool workers from folding processes, and a child must not inherit a
    held lock.
    """

    def __init__(self) -> None:
        self.scratch = np.empty(0, dtype=np.uint8)
        self.keys: list[np.ndarray] = []
        self.sums: list[np.ndarray] = []

    def buffers(
        self, rows: int, record_bytes: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """The two radix scratch buffers, ``rows`` records each."""
        need = record_bytes * max(rows, 1)
        if len(self.scratch) < 2 * need:
            self.scratch = np.empty(2 * need, dtype=np.uint8)
        return self.scratch[:need], self.scratch[need:2 * need]

    def outputs(self, rows: int, nkeys: int, ncols: int):
        """Full-length output staging (results are copied out)."""
        for pool, count, dtype in (
            (self.keys, nkeys, np.int64), (self.sums, ncols, np.float64),
        ):
            for i in range(count):
                if i == len(pool):
                    pool.append(np.empty(rows, dtype=dtype))
                elif len(pool[i]) < rows:
                    pool[i] = np.empty(rows, dtype=dtype)
        return self.keys[:nkeys], self.sums[:ncols]


def _copied_out(count: int, keys: np.ndarray, columns):
    """The first ``count`` staged rows as an owned ``(keys, cols)`` part."""
    return keys[:count].copy(), tuple(c[:count].copy() for c in columns)


class NativeKernel(NumpyKernel):
    """The compiled fold and sorted-part merges, bound through ctypes.

    ``lib`` is the loaded ``_kernels.c`` library; ``None`` means it
    could not be built or loaded and the backend *is* the reference —
    the silent-fallback contract (``fallback_reason`` says why, and the
    engine surfaces it as a ``kernel`` trace event).
    """

    name = "native"

    def __init__(
        self, lib: ctypes.CDLL | None, fallback_reason: str | None = None
    ) -> None:
        self._lib = lib
        self.provider = "cc" if lib is not None else "numpy"
        self.fallback_reason = fallback_reason
        self._staging = _Staging()
        if lib is None:
            return
        lib.fold_chunk.restype = _I64
        lib.fold_chunk.argtypes = [
            _ADDRS, _ADDRS, _I64,
            _U8, _KEYS, _KEYS, _I64, ctypes.c_double, _I64,
            _KEYS, _SUMS, _SUMS, _SUMS,
            _KEYS, _SUMS,
            _KEYS, _SUMS,
            _KEYS, _SUMS,
            _U8, _U8,
            _KEYS,
        ]
        lib.merge_sorted.restype = _I64
        lib.merge_sorted.argtypes = [
            _KEYS, _PP_F64, _I64,
            _KEYS, _PP_F64, _I64,
            _I64, _KEYS, _PP_F64,
        ]
        lib.merge_k.restype = _I64
        lib.merge_k.argtypes = [
            ctypes.POINTER(_P_I64), _PP_F64, ctypes.POINTER(_I64), _I64, _I64,
            _KEYS, _PP_F64,
        ]

    def fold_chunk(self, src_ip, dst_ip, proto, packets, bytes_, factor,
                   block_shift=8):
        # The fold is compiled for uint32 (IPv4) and uint64 (IPv6) keys
        # of one width; any other layout silently takes the reference
        # path — same dtype-gate contract as a missing library.
        key_layout = _FOLD_KEYS.get(dst_ip.dtype)
        if (
            self._lib is not None
            and key_layout is not None
            and src_ip.dtype == dst_ip.dtype
            and proto.dtype == np.uint8
            and packets.dtype == np.int64
            and bytes_.dtype == np.int64
        ):
            n = len(dst_ip)
            key_bits, record_bytes = key_layout
            bufa, bufb = self._staging.buffers(n, record_bytes)
            keys, sums = self._staging.outputs(n, 4, 6)
            dst_keys, vol_keys, src_keys, raw_keys = keys
            dst_cols = sums[:3]
            vol_pk, src_pk, raw_pk = sums[3:]
            counts = np.zeros(4, dtype=np.int64)
            status = self._lib.fold_chunk(
                np.ascontiguousarray(src_ip),
                np.ascontiguousarray(dst_ip),
                key_bits,
                np.ascontiguousarray(proto),
                np.ascontiguousarray(packets),
                np.ascontiguousarray(bytes_),
                n, float(factor), int(block_shift),
                dst_keys, *dst_cols,
                vol_keys, vol_pk,
                src_keys, src_pk,
                raw_keys, raw_pk,
                bufa, bufb,
                counts,
            )
            # Non-zero: a count outside the 31-bit record field (or
            # negative) — the reference path below takes the chunk.
            if status == 0:
                ndst, nvol, nsrc, nraw = (int(c) for c in counts)
                return (
                    _copied_out(ndst, dst_keys, dst_cols),
                    _copied_out(nvol, vol_keys, (vol_pk,)),
                    _copied_out(nsrc, src_keys, (src_pk,)),
                    _copied_out(nraw, raw_keys, (raw_pk,)),
                )
        return super().fold_chunk(
            src_ip, dst_ip, proto, packets, bytes_, factor, block_shift
        )

    def merge_sorted_parts(self, parts):
        if self._lib is None:
            return super().merge_sorted_parts(parts)
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
        if len(normalized) == 2:
            return self._merge_sorted(*normalized[0], *normalized[1])
        if len(normalized) <= _MERGE_K_MAX_PARTS:
            return self._merge_k(normalized)
        # Degenerate part count: chain pairwise, left to right — the
        # same per-key accumulation order, just more passes.
        keys, columns = normalized[0]
        for next_keys, next_columns in normalized[1:]:
            keys, columns = self._merge_sorted(
                keys, columns, next_keys, next_columns
            )
        return keys, columns

    def _merge_sorted(self, ka, va, kb, vb):
        # Pooled staging is safe here: the returned arrays are copies,
        # so chained merges never alias their own input.
        (out_keys,), out_cols = self._staging.outputs(
            len(ka) + len(kb), 1, len(va)
        )
        count = self._lib.merge_sorted(
            ka, _col_ptrs(va), len(ka),
            kb, _col_ptrs(vb), len(kb),
            len(va), out_keys, _col_ptrs(out_cols),
        )
        return _copied_out(count, out_keys, out_cols)

    def _merge_k(self, parts):
        nparts = len(parts)
        ncols = len(parts[0][1])
        cap = sum(len(part[0]) for part in parts)
        (out_keys,), out_cols = self._staging.outputs(cap, 1, ncols)
        key_ptrs = (_P_I64 * nparts)()
        col_ptrs = (_P_F64 * (nparts * ncols))()
        lens = (_I64 * nparts)()
        for p, (keys, columns) in enumerate(parts):
            key_ptrs[p] = keys.ctypes.data_as(_P_I64)
            lens[p] = len(keys)
            for c, column in enumerate(columns):
                col_ptrs[p * ncols + c] = column.ctypes.data_as(_P_F64)
        count = self._lib.merge_k(
            key_ptrs, col_ptrs, lens, nparts, ncols,
            out_keys, _col_ptrs(out_cols),
        )
        return _copied_out(count, out_keys, out_cols)


def _cache_dir() -> Path:
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    base = os.environ.get("XDG_CACHE_HOME") or str(Path.home() / ".cache")
    return Path(base) / "repro" / "kernels"


def _build(compiler: str, source: Path, shared: Path) -> str | None:
    """Compile ``source`` into ``shared`` atomically; the failure reason."""
    shared.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.NamedTemporaryFile(
        dir=shared.parent, suffix=".so", delete=False
    ) as handle:
        temp = handle.name
    try:
        result = subprocess.run(
            [compiler, "-O3", "-shared", "-fPIC", "-o", temp, str(source)],
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


def _load_library() -> tuple[ctypes.CDLL | None, str | None]:
    """Build (once per source hash) and load ``_kernels.c``."""
    if os.environ.get(DISABLE_NATIVE_ENV):
        return None, f"disabled via {DISABLE_NATIVE_ENV}"
    source = Path(__file__).with_name("_kernels.c")
    if not source.exists():
        return None, "_kernels.c not packaged"
    compiler = os.environ.get("CC") or shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        return None, "no C compiler on PATH"
    digest = hashlib.sha256(source.read_bytes()).hexdigest()[:16]
    shared = _cache_dir() / f"kernels-{digest}.so"
    if not shared.exists():
        try:
            reason = _build(compiler, source, shared)
        except (OSError, subprocess.SubprocessError) as error:
            # Unwritable cache dir, missing compiler, build timeout.
            reason = f"{compiler} build failed: {error}"
        if reason is not None:
            return None, reason
    try:
        return ctypes.CDLL(str(shared)), None
    except OSError as error:  # pragma: no cover - corrupt cache
        return None, f"cannot load {shared.name}: {error}"


# ---------------------------------------------------------------------------
# Resolution
# ---------------------------------------------------------------------------

_CACHE: dict[str, Any] = {}


def _native_kernel() -> NativeKernel:
    if "native" not in _CACHE:
        _CACHE["native"] = NativeKernel(*_load_library())
    return _CACHE["native"]


def get_kernel(name: str | None) -> NumpyKernel:
    """The backend instance for a resolved knob value.

    ``numpy`` and ``native`` return the named backend (``native``
    degrades to reference semantics when the library is unavailable);
    ``auto``/``None`` resolve via :func:`resolve_kernel_name` first.
    """
    name = resolve_kernel_name(name)
    if name == "numpy":
        if "numpy" not in _CACHE:
            _CACHE["numpy"] = NumpyKernel()
        return _CACHE["numpy"]
    return _native_kernel()


def resolve_kernel_name(name: str | None) -> str:
    """Resolve the public knob value to a concrete backend name.

    ``auto`` (and ``None``) pick ``native`` when the C library is
    actually available — never the degraded fallback — so ``auto``
    on a machine without a C compiler plans ``numpy``.
    """
    if name is None:
        name = "auto"
    if name not in KERNEL_CHOICES:
        raise ValueError(
            f"kernel must be one of {', '.join(KERNEL_CHOICES)}; got {name!r}"
        )
    if name == "auto":
        return "native" if native_provider() is not None else "numpy"
    return name


def native_provider() -> str | None:
    """The native backend's provider name, or None when degraded."""
    kernel = _native_kernel()
    return kernel.provider if kernel.fallback_reason is None else None

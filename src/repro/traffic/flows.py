"""Columnar flow table.

Flow records are what every vantage point in the paper exports (IPFIX
at the IXPs, NetFlow at the ISP, per-packet rows at the telescopes —
a telescope capture is simply an unsampled flow table).  The table is a
struct-of-arrays over numpy so the inference pipeline stays vectorised
at hundreds of thousands of blocks.

Tables carry an address family tag (:mod:`repro.net.family`).  For IPv4
the ``src_ip``/``dst_ip`` columns are full uint32 addresses.  For IPv6
they hold the *engine key* — the upper 64 bits (the /64 id) as uint64 —
and the low 64 bits travel in optional ``src_ip_lo``/``dst_ip_lo``
columns for fidelity only; the inference pipeline never reads them,
because classification happens at /48 site granularity.

Ground-truth columns (``sender_asn``, ``spoofed``) travel with each row
for evaluation purposes only; the inference code never reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from repro.net.family import FAMILY_IPV4, FAMILY_IPV6, family as _family
from repro.traffic.packets import PROTO_TCP

#: Column name -> dtype for an IPv4 flow table (the historical schema).
FLOW_COLUMNS: Mapping[str, np.dtype] = {
    "src_ip": np.dtype(np.uint32),
    "dst_ip": np.dtype(np.uint32),
    "proto": np.dtype(np.uint8),
    "dport": np.dtype(np.uint16),
    "packets": np.dtype(np.int64),
    "bytes": np.dtype(np.int64),
    "sender_asn": np.dtype(np.int32),
    "dst_asn": np.dtype(np.int32),
    "spoofed": np.dtype(bool),
}

#: Column name -> dtype for an IPv6 flow table: uint64 engine keys plus
#: the low-64-bit side columns.
FLOW_COLUMNS_V6: Mapping[str, np.dtype] = {
    "src_ip": np.dtype(np.uint64),
    "dst_ip": np.dtype(np.uint64),
    "proto": np.dtype(np.uint8),
    "dport": np.dtype(np.uint16),
    "packets": np.dtype(np.int64),
    "bytes": np.dtype(np.int64),
    "sender_asn": np.dtype(np.int32),
    "dst_asn": np.dtype(np.int32),
    "spoofed": np.dtype(bool),
    "src_ip_lo": np.dtype(np.uint64),
    "dst_ip_lo": np.dtype(np.uint64),
}


def flow_columns(family_name: str) -> Mapping[str, np.dtype]:
    """The column schema for an address family name."""
    if family_name == FAMILY_IPV4:
        return FLOW_COLUMNS
    if family_name == FAMILY_IPV6:
        return FLOW_COLUMNS_V6
    raise ValueError(f"unknown address family: {family_name!r}")


@dataclass(frozen=True)
class FlowTable:
    """An immutable batch of flow records (struct of arrays)."""

    src_ip: np.ndarray
    dst_ip: np.ndarray
    proto: np.ndarray
    dport: np.ndarray
    packets: np.ndarray
    bytes: np.ndarray
    sender_asn: np.ndarray
    dst_asn: np.ndarray
    #: Ground-truth flag; ``None`` is the "nothing spoofed" sentinel and
    #: materialises to an all-False array in ``__post_init__``.
    spoofed: np.ndarray | None = None
    #: Low 64 address bits (IPv6 only); ``None`` materialises to zeros.
    src_ip_lo: np.ndarray | None = None
    dst_ip_lo: np.ndarray | None = None
    #: Address family tag: ``"ipv4"`` (default) or ``"ipv6"``.
    family: str = FAMILY_IPV4

    def __post_init__(self) -> None:
        columns = flow_columns(self.family)
        if self.spoofed is None:
            object.__setattr__(
                self, "spoofed", np.zeros(len(self.src_ip), dtype=bool)
            )
        if self.family == FAMILY_IPV6:
            for name in ("src_ip_lo", "dst_ip_lo"):
                if getattr(self, name) is None:
                    object.__setattr__(
                        self, name, np.zeros(len(self.src_ip), dtype=np.uint64)
                    )
        else:
            for name in ("src_ip_lo", "dst_ip_lo"):
                if getattr(self, name) is not None:
                    raise ValueError(
                        f"{name} is an IPv6 column; this table is {self.family}"
                    )
        lengths = {name: len(getattr(self, name)) for name in columns}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"ragged flow table: {lengths}")
        for name, dtype in columns.items():
            column = np.asarray(getattr(self, name))
            if column.dtype != dtype:
                object.__setattr__(self, name, column.astype(dtype))

    # -- schema ---------------------------------------------------------

    def columns(self) -> Mapping[str, np.dtype]:
        """This table's column schema (name -> dtype)."""
        return flow_columns(self.family)

    @property
    def address_family(self):
        """The :class:`~repro.net.family.AddressFamily` for this table."""
        return _family(self.family)

    # -- construction ---------------------------------------------------

    @classmethod
    def empty(cls, family: str = FAMILY_IPV4) -> "FlowTable":
        """A table with zero rows."""
        return cls(
            **{
                name: np.empty(0, dtype=dtype)
                for name, dtype in flow_columns(family).items()
            },
            family=family,
        )

    @classmethod
    def concat(cls, tables: Iterable["FlowTable"]) -> "FlowTable":
        """Concatenate tables (rows stacked in order; one family only)."""
        tables = [t for t in tables if len(t)]
        if not tables:
            return cls.empty()
        if len(tables) == 1:
            return tables[0]
        families = {t.family for t in tables}
        if len(families) > 1:
            raise ValueError(f"cannot concat mixed address families: {families}")
        head = tables[0]
        return cls(
            **{
                name: np.concatenate([getattr(t, name) for t in tables])
                for name in head.columns()
            },
            family=head.family,
        )

    def __len__(self) -> int:
        return len(self.src_ip)

    # -- chunked ingestion -------------------------------------------

    def slice_rows(self, start: int, stop: int) -> "FlowTable":
        """The half-open row range ``[start, stop)``, zero-copy."""
        return FlowTable(
            **{name: getattr(self, name)[start:stop] for name in self.columns()},
            family=self.family,
        )

    def iter_chunks(self, chunk_rows: int | None) -> Iterator["FlowTable"]:
        """Yield the table as bounded-size row chunks, zero-copy.

        Chunks are numpy slices of the parent columns — no row is ever
        copied, so a consumer that aggregates chunk-by-chunk holds at
        most O(chunk) fresh memory.  ``chunk_rows=None`` yields the
        whole table as a single chunk; an empty table yields nothing.
        ``FlowTable.concat(t.iter_chunks(n))`` round-trips for any n.
        """
        if len(self) == 0:
            return
        if chunk_rows is None:
            yield self
            return
        if chunk_rows < 1:
            raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
        for start in range(0, len(self), chunk_rows):
            yield self.slice_rows(start, start + chunk_rows)

    # -- row selection ----------------------------------------------------

    def filter(self, mask: np.ndarray) -> "FlowTable":
        """Rows where ``mask`` is True."""
        return FlowTable(
            **{name: getattr(self, name)[mask] for name in self.columns()},
            family=self.family,
        )

    def tcp(self) -> "FlowTable":
        """Only TCP rows."""
        return self.filter(self.proto == PROTO_TCP)

    def toward_blocks(self, blocks: np.ndarray) -> "FlowTable":
        """Rows whose destination block is in ``blocks`` (sorted or not)."""
        wanted = np.unique(np.asarray(blocks, dtype=np.int64))
        return self.filter(np.isin(self.dst_blocks(), wanted))

    # -- derived columns ----------------------------------------------

    def src_blocks(self) -> np.ndarray:
        """Source block id per row (/24 for v4, /48 site for v6)."""
        return self.address_family.block_of(self.src_ip)

    def dst_blocks(self) -> np.ndarray:
        """Destination block id per row (/24 for v4, /48 site for v6)."""
        return self.address_family.block_of(self.dst_ip)

    def total_packets(self) -> int:
        """Sum of the packet column."""
        return int(self.packets.sum())

    def total_bytes(self) -> int:
        """Sum of the byte column."""
        return int(self.bytes.sum())

    # -- sampling ----------------------------------------------------

    def thin(self, probability: float, rng: np.random.Generator) -> "FlowTable":
        """Packet-sampled copy: keep each packet with ``probability``.

        Emulates the per-packet sampling that produces IPFIX records:
        each flow's packet count is binomially thinned, bytes are scaled
        by the surviving fraction (rounded), and empty flows disappear.
        """
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability out of range: {probability}")
        if probability == 1.0:
            return self
        if probability == 0.0 or len(self) == 0:
            return FlowTable.empty(self.family)
        kept = rng.binomial(self.packets, probability)
        mask = kept > 0
        if not mask.any():
            return FlowTable.empty(self.family)
        scale = kept[mask] / self.packets[mask]
        table = self.filter(mask)
        new_bytes = np.maximum(
            np.rint(table.bytes * scale).astype(np.int64), kept[mask] * 20
        )
        replaced = {name: getattr(table, name) for name in table.columns()}
        replaced["packets"] = kept[mask]
        replaced["bytes"] = new_bytes
        return FlowTable(**replaced, family=self.family)

    def decimate(self, factor: int, rng: np.random.Generator) -> "FlowTable":
        """Sub-sample by an integer factor (the Figure-10 operation)."""
        if factor < 1:
            raise ValueError(f"factor must be >= 1, got {factor}")
        return self.thin(1.0 / factor, rng)


def aggregate_sums(
    keys: np.ndarray, *value_columns: np.ndarray
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Group-by-sum: unique ``keys`` plus per-key sums of each column.

    Returns ``(unique_keys, (sum_0, sum_1, ...))`` with groups in
    ascending key order.
    """
    unique_keys, inverse = np.unique(keys, return_inverse=True)
    sums = tuple(
        np.bincount(inverse, weights=column, minlength=len(unique_keys)).astype(
            np.int64
        )
        for column in value_columns
    )
    return unique_keys, sums


def weighted_median(values: np.ndarray, weights: np.ndarray) -> float:
    """Median of a weighted sample (packet-weighted flow sizes).

    Used to compute per-block *median packet size* from flow records:
    each flow contributes its mean packet size with multiplicity equal
    to its packet count.
    """
    values = np.asarray(values, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if len(values) == 0 or weights.sum() <= 0:
        raise ValueError("cannot take the median of an empty sample")
    order = np.argsort(values, kind="stable")
    sorted_values = values[order]
    cumulative = np.cumsum(weights[order])
    midpoint = cumulative[-1] / 2.0
    index = int(np.searchsorted(cumulative, midpoint))
    return float(sorted_values[min(index, len(sorted_values) - 1)])

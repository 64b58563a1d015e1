"""Frozen reference computations the benchmark pairs every timing with.

A timed unit of system work is never reported as raw wall-clock: it is
divided by the time of one of these functions, run on the same input in
the same second (see README.md, "The pairing rule").  They are naive on
purpose, import nothing from ``repro`` and must not be edited by a
change that claims a gain -- ``test_harness.py`` pins their digests.
"""

from __future__ import annotations

import csv
import hashlib

import numpy as np

PROTO_TCP = 6

#: The paper's TCP mean-packet-size fingerprint (bytes).
SIZE_THRESHOLD = 44.0

#: Median seconds of each workload's reference unit on the host the
#: benchmark was validated on (traced runs of seeds 1-3, 2 vCPU KVM).
#: ``setup_s`` is the cold-start pair ratio times this constant, i.e.
#: seconds on a reference-speed machine.  Frozen when the benchmark
#: landed.
REF_NOMINAL_S = {
    "archive_batch": 0.018,
    "csv_stream": 0.036,
    "online_daily": 0.0045,
    "ipv6_sites": 0.049,
}


def ref_fold(columns: dict[str, np.ndarray], shift: int) -> np.ndarray:
    """Group rows by destination block; return the dark-looking blocks.

    ``columns`` holds ``src_ip``, ``dst_ip``, ``proto``, ``packets`` and
    ``bytes``; ``shift`` turns an address key into a block id (8 for
    IPv4 /24s, 16 for /64-keyed IPv6 /48 sites).  A block looks dark
    when its TCP packets average at most :data:`SIZE_THRESHOLD` bytes
    and no row was sourced from it.
    """
    dst_blocks = columns["dst_ip"] >> shift
    blocks, inverse = np.unique(dst_blocks, return_inverse=True)
    tcp = columns["proto"] == PROTO_TCP
    tcp_packets = np.bincount(
        inverse, weights=np.where(tcp, columns["packets"], 0),
        minlength=len(blocks),
    )
    tcp_bytes = np.bincount(
        inverse, weights=np.where(tcp, columns["bytes"], 0),
        minlength=len(blocks),
    )
    small = (tcp_packets > 0) & (
        tcp_bytes <= SIZE_THRESHOLD * tcp_packets
    )
    sources = np.unique(columns["src_ip"] >> shift)
    unseen = ~np.isin(blocks, sources)
    return blocks[small & unseen]


def ref_csv_fold(paths: list[str]) -> np.ndarray:
    """:func:`ref_fold` for IPv4 flow CSV files, with ``csv.reader`` and
    a dict -- the naive reading of the same stored input the system's
    CSV unit parses."""
    sums: dict[int, list[int]] = {}
    sources: set[int] = set()
    for path in paths:
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader)
            src, dst, proto, packets, size = (
                header.index(name)
                for name in ("src_ip", "dst_ip", "proto", "packets", "bytes")
            )
            for row in reader:
                sources.add(int(row[src]) >> 8)
                entry = sums.setdefault(int(row[dst]) >> 8, [0, 0])
                if int(row[proto]) == PROTO_TCP:
                    entry[0] += int(row[packets])
                    entry[1] += int(row[size])
    dark = [
        block
        for block, (tcp_packets, tcp_bytes) in sums.items()
        if tcp_packets > 0
        and tcp_bytes <= SIZE_THRESHOLD * tcp_packets
        and block not in sources
    ]
    return np.array(sorted(dark), dtype=np.int64)


def digest(blocks: np.ndarray) -> str:
    """Short content digest of a reference result."""
    data = np.ascontiguousarray(blocks, dtype=np.int64).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


def synthetic_columns(seed: int, rows: int = 20_000) -> dict[str, np.ndarray]:
    """A small seeded IPv4 flow table for pinning the references.

    Independent of ``repro`` so the pinned digests move only when a
    reference (or numpy's seeded generator) changes.
    """
    rng = np.random.default_rng(seed)
    tcp = rng.random(rows) < 0.7
    packets = rng.integers(1, 6, size=rows)
    per_packet = np.where(rng.random(rows) < 0.6, 40, 60)
    return {
        # Sources stay in the lower half, so half the blocks are unseen.
        "src_ip": rng.integers(0, 1 << 19, size=rows).astype(np.uint32),
        "dst_ip": rng.integers(0, 1 << 20, size=rows).astype(np.uint32),
        "proto": np.where(tcp, PROTO_TCP, 17).astype(np.uint8),
        "packets": packets.astype(np.int64),
        "bytes": (packets * per_packet).astype(np.int64),
    }

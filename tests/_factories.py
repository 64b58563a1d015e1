"""Hand-crafted flow/view factories for precise pipeline tests."""

from __future__ import annotations

import numpy as np

from repro.bgp.rib import Announcement, RoutingTable
from repro.core.accum import PrefixAccumulator
from repro.core.engine import ExecutionPlanner, RunContext, execute_plan
from repro.net.ipv4 import Prefix
from repro.traffic.flows import FlowTable
from repro.traffic.packets import PROTO_TCP
from repro.vantage.sampling import VantageDayView


def make_flows(rows: list[dict]) -> FlowTable:
    """Build a FlowTable from row dicts with sensible defaults.

    Recognised keys: src_ip, dst_ip, proto, dport, packets, bytes,
    sender_asn, dst_asn, spoofed.  ``bytes`` defaults to 40 per packet
    (bare TCP SYNs).
    """
    defaults = {
        "src_ip": 0x01010101,
        "dst_ip": 0x02020202,
        "proto": PROTO_TCP,
        "dport": 23,
        "packets": 1,
        "bytes": None,
        "sender_asn": 1,
        "dst_asn": 2,
        "spoofed": False,
    }
    filled = []
    for row in rows:
        merged = {**defaults, **row}
        if merged["bytes"] is None:
            merged["bytes"] = merged["packets"] * 40
        filled.append(merged)
    return FlowTable(
        src_ip=np.array([r["src_ip"] for r in filled], dtype=np.uint32),
        dst_ip=np.array([r["dst_ip"] for r in filled], dtype=np.uint32),
        proto=np.array([r["proto"] for r in filled], dtype=np.uint8),
        dport=np.array([r["dport"] for r in filled], dtype=np.uint16),
        packets=np.array([r["packets"] for r in filled], dtype=np.int64),
        bytes=np.array([r["bytes"] for r in filled], dtype=np.int64),
        sender_asn=np.array([r["sender_asn"] for r in filled], dtype=np.int32),
        dst_asn=np.array([r["dst_asn"] for r in filled], dtype=np.int32),
        spoofed=np.array([r["spoofed"] for r in filled], dtype=bool),
    )


def make_view(
    rows: list[dict],
    vantage: str = "VP1",
    day: int = 0,
    sampling_factor: float = 1.0,
) -> VantageDayView:
    """A vantage-day view over hand-written rows."""
    return VantageDayView(
        vantage=vantage,
        day=day,
        flows=make_flows(rows),
        sampling_factor=sampling_factor,
    )


def routing_for(*prefix_texts: str, origin: int = 65000) -> RoutingTable:
    """A routing table announcing the given prefixes."""
    return RoutingTable(
        Announcement(prefix=Prefix.parse(text), origin_asn=origin + i)
        for i, text in enumerate(prefix_texts)
    )


def ip(block: int, host: int = 1) -> int:
    """Address ``host`` inside /24 block id ``block``."""
    if not 0 <= host <= 255:
        raise ValueError("host out of range")
    return (block << 8) | host


def same(actual: np.ndarray, expected: np.ndarray) -> None:
    """Assert two arrays equal in value, shape **and dtype** — what
    "reproduced array-equal" means when a rewrite is held to an oracle."""
    assert actual.dtype == expected.dtype, (actual.dtype, expected.dtype)
    np.testing.assert_array_equal(actual, expected)


def fold(
    views,
    ignore_sources_from_asns: frozenset[int] = frozenset(),
    *,
    context: RunContext | None = None,
    **knobs,
) -> PrefixAccumulator:
    """Fold ``views`` through the engine's one fold path.

    ``knobs`` are the planner's (``chunk_size``, ``workers``,
    ``kernel``).  Pass a ``context`` to read the fold's events (a
    parallel plan's ``worker`` events carry each day's row count).
    """
    views = list(views)
    plan = ExecutionPlanner().plan(views, **knobs)
    return execute_plan(
        plan, views, context, ignore_sources_from_asns=ignore_sources_from_asns
    )


def families_of(accumulator: PrefixAccumulator) -> list:
    """Every keyed column family an accumulator holds."""
    return [
        accumulator._dst_ip_sums,
        *accumulator._src_by_vantage.values(),
        *accumulator._volume_by_day.values(),
        *accumulator._src_ips_by_day.values(),
    ]

"""The verdict tail on sorted-set algebra reproduces the hashed one.

Between ``PrefixAccumulator.finalize`` and ``SnapshotDeltaStore.append``
every block set is sorted-unique, and the set algebra is a linear merge
or one ``searchsorted`` probe (:mod:`repro.net.blocksets`).  The numpy
set routines the tail used before (``np.unique`` / ``isin`` /
``setdiff1d`` / ``intersect1d`` / ``union1d`` / ``ufunc.at``) live on
here only — as the oracles each rewritten function is held to,
array-equal and dtype included, on generated input.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bgp.rib import Announcement, RoutingTable
from repro.bgp.topology import AsTopology
from repro.core.accum import FinalizedAggregates, PrefixAccumulator
from repro.core.kernels import get_kernel
from repro.core.refine import cone_filtered_view
from repro.core.snapshot import (
    NO_ASN,
    NO_COUNTRY,
    SNAPSHOT_COLUMNS,
    VERDICT_CANDIDATE,
    VERDICT_DARK,
    VERDICT_GRAY,
    VERDICT_UNCLEAN,
    ClassificationSnapshot,
    build_snapshot,
)
from repro.core.snapshot_store import (
    OP_DELETE,
    OP_UPSERT,
    _apply_delta,
    _row_delta,
)
from repro.core.stages import PipelineConfig, run_funnel
from repro.datasets.pfx2as import PrefixToAsMap
from repro.net.ipv4 import Prefix, parse_ip
from repro.net.special import SPECIAL_PURPOSE_REGISTRY

from _factories import make_view, same
from test_pipeline_properties import ROUTING, flow_tables


#: Block ids from two narrow ranges — one of them above 2**32, where
#: IPv6 /48 site ids live — so generated sets overlap all the time.
BLOCK = st.one_of(
    st.integers(min_value=100, max_value=130),
    st.integers(min_value=2**40, max_value=2**40 + 30),
)
#: A verdict set as a caller may hand it in: unsorted, with duplicates.
RAW_SET = st.lists(BLOCK, max_size=25)


# ---------------------------------------------------------------------------
# build_snapshot
# ---------------------------------------------------------------------------


def reference_build_columns(day, dark, unclean, gray, candidate, history):
    """The snapshot columns as the ``np.unique``/``np.isin`` builder
    computed them (five uniques, four hashed memberships, one more per
    history entry and column)."""
    sets = {
        VERDICT_UNCLEAN: np.unique(np.asarray(unclean, dtype=np.int64)),
        VERDICT_GRAY: np.unique(np.asarray(gray, dtype=np.int64)),
        VERDICT_CANDIDATE: np.unique(np.asarray(candidate, dtype=np.int64)),
        VERDICT_DARK: np.unique(np.asarray(dark, dtype=np.int64)),
    }
    all_blocks = np.unique(np.concatenate(list(sets.values())))
    verdicts = np.zeros(len(all_blocks), dtype=np.uint8)
    for code, members in sets.items():  # later wins: dict order ends dark
        verdicts[np.isin(all_blocks, members)] = code
    dark_like = (verdicts == VERDICT_DARK) | (verdicts == VERDICT_CANDIDATE)
    streaks = np.ones(len(all_blocks), dtype=np.int64)
    since = np.full(len(all_blocks), day, dtype=np.int32)
    newest_first = sorted(history, key=lambda item: item[0], reverse=True)
    if history and dark_like.any():
        blocks = all_blocks[dark_like]
        run = np.zeros(len(blocks), dtype=np.int64)
        first = np.full(len(blocks), day, dtype=np.int32)
        alive = np.ones(len(blocks), dtype=bool)
        for streak_day, present in newest_first:
            hit = alive & np.isin(blocks, present)
            run[hit] += 1
            first[hit] = streak_day
            alive = hit
        streaks[dark_like] = np.maximum(run, 1)
        since[dark_like] = first
    confidence = streaks / (streaks + 1.0)
    confidence[~dark_like] = 1.0
    return {
        "blocks": all_blocks,
        "verdicts": verdicts,
        "confidence": confidence,
        "since_day": since,
        "asns": np.full(len(all_blocks), NO_ASN, dtype=np.int32),
        "countries": np.full(len(all_blocks), NO_COUNTRY, dtype="S2"),
    }


@settings(max_examples=150, deadline=None)
@given(
    day=st.integers(min_value=0, max_value=30),
    dark=RAW_SET,
    unclean=RAW_SET,
    gray=RAW_SET,
    candidate=RAW_SET,
    history=st.lists(
        st.tuples(st.integers(min_value=0, max_value=30), RAW_SET), max_size=4
    ),
)
def test_build_snapshot_matches_the_hashed_builder(
    day, dark, unclean, gray, candidate, history
):
    # Overlapping sets (dark > candidate > gray > unclean), unsorted and
    # duplicated inputs, multi-day histories in any day order.
    snapshot = build_snapshot(
        day,
        dark=np.array(dark, dtype=np.int64),
        unclean=unclean,
        gray=np.array(gray, dtype=np.int64),
        candidate=candidate,
        history=[(d, np.array(b, dtype=np.int64)) for d, b in history],
    )
    expected = reference_build_columns(day, dark, unclean, gray, candidate, history)
    for name, column in snapshot.arrays().items():
        same(column, expected[name])


def test_build_snapshot_leaves_caller_arrays_writable():
    dark = np.array([3, 5, 9], dtype=np.int64)
    snapshot = build_snapshot(1, dark=dark)
    assert not snapshot.blocks.flags.writeable
    dark[0] = 4  # the frozen column is the builder's own copy
    assert snapshot.blocks.tolist() == [3, 5, 9]


# ---------------------------------------------------------------------------
# snapshot diff and the delta store's row delta
# ---------------------------------------------------------------------------


def table(rng, blocks: np.ndarray, version: int) -> ClassificationSnapshot:
    """A snapshot over ``blocks`` whose columns come from tiny domains,
    so two tables over a shared block agree on a column about as often
    as they differ."""
    size = len(blocks)
    return ClassificationSnapshot(
        day=version,
        version=version,
        blocks=blocks,
        verdicts=rng.integers(1, 5, size=size).astype(np.uint8),
        confidence=rng.choice(np.array([0.5, 1.0]), size=size),
        since_day=rng.integers(0, 2, size=size).astype(np.int32),
        asns=rng.integers(-1, 1, size=size).astype(np.int32),
        countries=rng.choice(np.array([b"AA", b"??"], dtype="S2"), size=size),
    )


RELATIONS = (
    "identical", "disjoint", "subset", "columns-only",
    "prev-empty", "new-empty", "both-empty", "random",
)


@st.composite
def snapshot_pairs(draw):
    relation = draw(st.sampled_from(RELATIONS))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31)))
    pool = np.unique(np.array(draw(st.lists(BLOCK, max_size=40)), dtype=np.int64))
    half = rng.random(len(pool)) < 0.5
    if relation == "disjoint":
        prev_blocks, new_blocks = pool[half], pool[~half]
    elif relation == "subset":
        prev_blocks, new_blocks = pool, pool[half]
    elif relation == "random":
        prev_blocks, new_blocks = pool[half], pool[rng.random(len(pool)) < 0.5]
    else:
        prev_blocks = pool[:0] if relation in ("prev-empty", "both-empty") else pool
        new_blocks = pool[:0] if relation in ("new-empty", "both-empty") else pool
    prev = table(rng, prev_blocks, version=1)
    if relation == "identical":
        new = dataclasses.replace(prev, version=2)
    else:
        new = table(rng, new_blocks, version=2)
    return prev, new


def reference_diff(new, older):
    """``ClassificationSnapshot.diff`` as three ``setdiff1d`` /
    ``intersect1d`` calls and two ``indices_of`` probes computed it."""
    common = np.intersect1d(new.blocks, older.blocks)
    changed = common[
        new.verdicts[np.searchsorted(new.blocks, common)]
        != older.verdicts[np.searchsorted(older.blocks, common)]
    ]
    return (
        np.setdiff1d(new.dark_blocks, older.dark_blocks),
        np.setdiff1d(older.dark_blocks, new.dark_blocks),
        changed,
    )


@settings(max_examples=150, deadline=None)
@given(snapshot_pairs())
def test_diff_matches_the_hashed_diff(pair):
    prev, new = pair
    for newer, older in ((new, prev), (prev, new)):
        diff = newer.diff(older)
        added, removed, changed = reference_diff(newer, older)
        same(diff.added_dark, added)
        same(diff.removed_dark, removed)
        same(diff.changed, changed)
        assert (diff.base_version, diff.version) == (older.version, newer.version)


def reference_row_delta(prev, new):
    """``_row_delta`` as three ``setdiff1d`` + ``intersect1d`` +
    ``union1d`` + three ``indices_of`` probes computed it."""
    removed = np.setdiff1d(prev.blocks, new.blocks)
    common = np.intersect1d(new.blocks, prev.blocks)
    new_idx = np.searchsorted(new.blocks, common)
    prev_idx = np.searchsorted(prev.blocks, common)
    changed_mask = np.zeros(len(common), dtype=bool)
    for name in SNAPSHOT_COLUMNS:
        if name != "blocks":
            changed_mask |= (
                getattr(new, name)[new_idx] != getattr(prev, name)[prev_idx]
            )
    upsert_blocks = np.union1d(
        np.setdiff1d(new.blocks, prev.blocks), common[changed_mask]
    )
    up_idx = np.searchsorted(new.blocks, upsert_blocks)
    arrays = {
        "op": np.concatenate([
            np.full(len(removed), OP_DELETE, dtype=np.uint8),
            np.full(len(upsert_blocks), OP_UPSERT, dtype=np.uint8),
        ])
    }
    for name, dtype in SNAPSHOT_COLUMNS.items():
        if name == "blocks":
            arrays[name] = np.concatenate([removed, upsert_blocks]).astype(np.int64)
        else:
            arrays[name] = np.concatenate([
                np.zeros(len(removed), dtype=dtype),
                getattr(new, name)[up_idx].astype(dtype),
            ])
    return arrays


@settings(max_examples=200, deadline=None)
@given(snapshot_pairs())
def test_row_delta_matches_the_hashed_delta_and_replays(pair):
    prev, new = pair
    delta = _row_delta(prev, new)
    expected = reference_row_delta(prev, new)
    assert list(delta) == list(expected)
    for name, column in delta.items():
        same(column, expected[name])
    replayed = _apply_delta(
        {name: np.asarray(column) for name, column in prev.arrays().items()},
        delta,
    )
    for name, column in new.arrays().items():
        same(replayed[name], np.asarray(column))


def test_identical_tables_make_an_empty_delta():
    rng = np.random.default_rng(7)
    prev = table(rng, np.arange(50, dtype=np.int64), version=1)
    delta = _row_delta(prev, dataclasses.replace(prev, version=2))
    assert all(len(column) == 0 for column in delta.values())


# ---------------------------------------------------------------------------
# finalize, and the funnel against a dict-and-loop reading
# ---------------------------------------------------------------------------


def reference_volume(accumulator: PrefixAccumulator):
    """``vol_blocks`` / ``vol_median_est`` through the dense
    days-by-blocks matrix ``finalize`` always built."""
    day_tables = [
        accumulator._volume_by_day[day].compacted() for day in accumulator.days()
    ]
    vol_blocks = np.unique(
        np.concatenate([np.empty(0, np.int64)] + [b for b, _ in day_tables])
    )
    matrix = np.zeros((max(len(day_tables), 1), len(vol_blocks)))
    for row, (blocks, (est,)) in enumerate(day_tables):
        matrix[row, np.searchsorted(vol_blocks, blocks)] = est
    return vol_blocks, np.median(matrix, axis=0)


@settings(max_examples=60, deadline=None)
@given(st.lists(flow_tables(), min_size=1, max_size=3), st.booleans())
def test_finalize_volume_matches_the_dense_median(day_flows, native):
    accumulator = PrefixAccumulator(kernel="auto" if native else None)
    for day, flows in enumerate(day_flows):
        accumulator.update(flows, vantage="V", day=day, sampling_factor=3.0)
    finalized = accumulator.finalize()
    vol_blocks, vol_median = reference_volume(accumulator)
    same(finalized.vol_blocks, vol_blocks)
    same(finalized.vol_median_est, vol_median)


@st.composite
def finalized_aggregates(draw):
    """Finalize-shaped columns: sorted-unique address and block tables,
    1-3 per-day source key sets that overlap the destinations and each
    other, and per-block excess that is zero (forgiven by a tolerance)
    for some source blocks — or for none of them, the run without a
    spoofing tolerance."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31)))
    shift = draw(st.sampled_from([8, 16]))
    base = draw(st.sampled_from([20 << 16, 2**45]))
    pool = base + np.unique(
        rng.integers(0, 6 << shift, size=draw(st.integers(0, 80)))
    )
    dst_ips = pool[rng.random(len(pool)) < 0.7]
    src_ips_by_day = tuple(
        pool[rng.random(len(pool)) < 0.2]
        for _ in range(draw(st.integers(1, 3)))
    )
    src_blocks = np.unique(pool >> shift)
    src_blocks = src_blocks[rng.random(len(src_blocks)) < 0.8]
    tolerance = draw(st.booleans())
    excess = rng.integers(0 if tolerance else 1, 3, size=len(src_blocks))
    tcp_pkts = rng.integers(0, 3, size=len(dst_ips)).astype(np.float64)
    # Some blocks lack a volume entry (read as 0); the rest sit either
    # side of the default 700-packet threshold.
    vol_blocks = np.unique(dst_ips >> shift)
    vol_blocks = vol_blocks[rng.random(len(vol_blocks)) < 0.8]
    return FinalizedAggregates(
        dst_ips=dst_ips,
        ip_tcp_pkts_est=tcp_pkts,
        ip_tcp_bytes_est=tcp_pkts * rng.choice([40.0, 48.0, 60.0], size=len(dst_ips)),
        src_ips_by_day=src_ips_by_day,
        vol_blocks=vol_blocks,
        vol_median_est=rng.choice([1.0, 500.0, 900.0], size=len(vol_blocks)),
        src_blocks=src_blocks,
        src_block_excess=excess.astype(np.float64),
        applied_tolerances={},
        block_shift=shift,
    )


class BlockSet:
    """A routing table or special registry reduced to what the funnel
    asks of one: is each block in a (drawn) set."""

    def __init__(self, blocks) -> None:
        self.blocks = frozenset(blocks)

    def mask(self, blocks: np.ndarray) -> np.ndarray:
        return np.array([b in self.blocks for b in blocks.tolist()], dtype=bool)

    routed_mask = special_mask = mask


def naive_funnel(finalized, config, routed, special):
    """Steps 1-6 and the per-IP classification of paper section 4.2,
    one block at a time over plain dicts, sets and lists.

    Returns ``(funnel counts, {verdict: sorted blocks})`` with the
    verdicts ``dark`` / ``unclean`` / ``gray`` and ``volume`` (blocks
    that pass steps 1-5 and fail step 6 only).
    """
    shift = finalized.block_shift
    ips = finalized.dst_ips.tolist()
    pkts = finalized.ip_tcp_pkts_est.tolist()
    size = finalized.ip_tcp_bytes_est.tolist()
    members: dict[int, list[int]] = {}
    for index, ip in enumerate(ips):
        members.setdefault(ip >> shift, []).append(index)
    sources = set().union(*(day.tolist() for day in finalized.src_ips_by_day))
    sourcing = {
        block
        for block, excess in zip(
            finalized.src_blocks.tolist(), finalized.src_block_excess.tolist()
        )
        if excess > 0
    }
    volume = dict(
        zip(finalized.vol_blocks.tolist(), finalized.vol_median_est.tolist())
    )
    counts = [0] * 7
    verdicts: dict[str, list[int]] = {
        "dark": [], "unclean": [], "gray": [], "volume": []
    }
    for block, indices in sorted(members.items()):
        block_pkts = sum(pkts[i] for i in indices)
        block_bytes = sum(size[i] for i in indices)
        survives, fails = [], []
        for i in indices:
            is_source = block in sourcing and ips[i] in sources
            tcp = pkts[i] > 0
            small = tcp and size[i] / pkts[i] <= config.ip_size_threshold
            survives.append(small and not is_source)
            fails.append((tcp and not small) or is_source)
        steps = (
            block_pkts > 0,
            block_pkts > 0
            and block_bytes / block_pkts <= config.avg_size_threshold,
            any(survives),
            block not in special,
            block in routed,
            volume.get(block, 0.0) <= config.volume_threshold_pkts_day,
        )
        passed = 0
        while passed < len(steps) and steps[passed]:
            passed += 1
        for step in range(passed + 1):
            counts[step] += 1
        if passed == 5:
            verdicts["volume"].append(block)
        elif passed == 6:
            if block in sourcing:
                verdicts["gray"].append(block)
            elif any(fails):
                verdicts["unclean"].append(block)
            else:
                verdicts["dark"].append(block)
    return counts, verdicts


def sourced_blocks_out_early():
    """Five /24s.  Four hold unforgiven sources and a source address:
    one fails step 2 (60-byte TCP), one step 1 (no TCP at all), one
    step 3 (its only TCP address sources) and one survives as gray.
    The fifth has no source and is dark.  Step 3 probes the source
    table only for the two sourced blocks that reach it."""
    base = parse_ip("20.0.0.0") >> 8
    rows = [
        # (block offset, host, tcp packets, tcp bytes, is a source)
        (0, 1, 2.0, 120.0, False), (0, 2, 0.0, 0.0, True),
        (1, 1, 0.0, 0.0, False), (1, 2, 0.0, 0.0, True),
        (2, 1, 2.0, 80.0, False),
        (3, 1, 2.0, 80.0, False), (3, 2, 1.0, 40.0, True),
        (4, 1, 2.0, 80.0, True),
    ]
    dst_ips = np.array([((base + b) << 8) | h for b, h, *_ in rows])
    tcp_pkts = np.array([row[2] for row in rows])
    source_blocks = base + np.array([0, 1, 3, 4])
    return FinalizedAggregates(
        dst_ips=dst_ips,
        ip_tcp_pkts_est=tcp_pkts,
        ip_tcp_bytes_est=np.array([row[3] for row in rows]),
        src_ips_by_day=(dst_ips[[row[4] for row in rows]],),
        vol_blocks=base + np.arange(5),
        vol_median_est=np.ones(5),
        src_blocks=source_blocks,
        src_block_excess=np.ones(4),
        applied_tolerances={},
    )


@settings(max_examples=200, deadline=None)
@given(
    finalized_aggregates(),
    st.integers(min_value=0, max_value=2**31),
    # Above the 48-byte per-IP slack, a block can pass step 2 while one
    # of its addresses fails: the unclean verdict.
    st.sampled_from([44.0, 52.0]),
    st.sampled_from(["numpy", "auto"]),
)
# Seed 23 routes all five blocks and marks none special.
@example(sourced_blocks_out_early(), 23, 44.0, "numpy")
@example(sourced_blocks_out_early(), 23, 44.0, "auto")
def test_funnel_matches_a_dict_and_loop_reading(finalized, seed, avg_size, kernel):
    rng = np.random.default_rng(seed)
    blocks = sorted(set((finalized.dst_ips >> finalized.block_shift).tolist()))
    routed = {block for block in blocks if rng.random() < 0.8}
    special = {block for block in blocks if rng.random() < 0.15}
    config = PipelineConfig(avg_size_threshold=avg_size)
    result = run_funnel(
        finalized, BlockSet(routed), BlockSet(special), config,
        kernel=get_kernel(kernel),
    )
    counts, verdicts = naive_funnel(finalized, config, routed, special)
    assert [count for _, count in result.funnel.as_rows()] == counts
    assert result.dark_blocks.tolist() == verdicts["dark"]
    assert result.unclean_blocks.tolist() == verdicts["unclean"]
    assert result.gray_blocks.tolist() == verdicts["gray"]
    assert result.volume_filtered_blocks.tolist() == verdicts["volume"]


def unsorted_finalized(dst_ips):
    """An empty finalize with ``dst_ips`` swapped in (and TCP columns
    of its length, so the native binding's length check passes)."""
    finalized = PrefixAccumulator().finalize()
    finalized.dst_ips = np.array(dst_ips, dtype=np.int64)
    finalized.ip_tcp_pkts_est = np.ones(len(dst_ips))
    finalized.ip_tcp_bytes_est = np.full(len(dst_ips), 40.0)
    return finalized


def test_stage_context_rejects_unsorted_columns():
    finalized = unsorted_finalized([0x14000101, 0x14000001])
    for kernel in ("numpy", "auto"):
        with pytest.raises(ValueError, match="sorted"):
            run_funnel(
                finalized, ROUTING, SPECIAL_PURPOSE_REGISTRY, PipelineConfig(),
                kernel=get_kernel(kernel),
            )


def test_a_repeated_address_key_is_rejected():
    # Sorted blocks, but one address twice: it must not count as two.
    finalized = unsorted_finalized([0x14000001, 0x14000002, 0x14000002])
    for kernel in ("numpy", "auto"):
        with pytest.raises(ValueError, match="sorted by destination key"):
            run_funnel(
                finalized, ROUTING, SPECIAL_PURPOSE_REGISTRY, PipelineConfig(),
                kernel=get_kernel(kernel),
            )


# ---------------------------------------------------------------------------
# the cone filter's allowed-pair table
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["20.1.1.1", "30.1.1.1", "40.1.1.1", "50.1.1.1"]),
            st.sampled_from([1, 2, 3, 4, -1]),
        ),
        max_size=12,
    )
)
def test_cone_filter_matches_the_pairwise_filter(rows):
    topology = AsTopology()
    topology.add_provider_customer(1, 2)
    topology.add_provider_customer(2, 3)
    topology.add_as(4)
    pfx2as = PrefixToAsMap.from_routing_table(
        RoutingTable(
            Announcement(Prefix.parse(f"{first}.0.0.0/8"), asn)
            for first, asn in ((20, 2), (30, 3), (40, 4))
        )
    )
    view = make_view(
        [
            {"src_ip": parse_ip(src), "sender_asn": sender}
            for src, sender in rows
        ]
    )
    flows = view.flows
    origin = pfx2as.asns_of_blocks(flows.src_blocks()) if len(flows) else []
    expected = [
        sender >= 0 and claimed >= 0
        and int(claimed) in topology.customer_cone(int(sender))
        for sender, claimed in zip(flows.sender_asn.tolist(), origin)
    ]
    kept = cone_filtered_view(view, topology, pfx2as).flows
    same(kept.src_ip, flows.src_ip[np.array(expected, dtype=bool)])

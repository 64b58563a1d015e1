"""Kernel backend parity, fallback, and regression tests.

The identity contract under test: ``kernel=numpy`` (the reference) and
``kernel=native`` (the bundled C extension module, or the silent numpy
fallback) produce bit-identical accumulator states and classifications
for *any* input.  The explicit cases pin the shapes that have bitten
compiled group-by kernels: empty and single-row chunks, all-duplicate keys,
full-range 32-bit addresses (a ``uint32`` shifted by its own width is
undefined behaviour in C — the regression here once looped forever),
fault-injected feeds, the ignored-sender filter path, counts outside
the 31-bit record field, and more pending parts than the k-way merge's
old 64-entry head index held.
64-bit IPv6 keys get the same cases plus their own: a range needing a
shift by 64, keys >= 2**63 (the reference's int64 cast turns them
negative) and ranges either side of the narrow/wide record boundary —
folded with the reference fold forbidden, so a silent decline fails.
The k-way merge is checked on its own the same way (2-100 parts, key
ranges up to the full int64 span, fractional and -0.0 values, the
reference regroup forbidden), and ``_KeyedSums`` runs as a state
machine under both kernels against a dict of per-key sums.
The numpy-vs-native classes are skipped (not passed numpy against
numpy) on a host where the module cannot be built.
"""

import hashlib
import sys
import sysconfig
import threading
import zlib
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.accum import PrefixAccumulator, _KeyedSums
from repro.core.engine import ExecutionPlanner, MemorySink, RunContext, execute_plan
from repro.core import kernels
from repro.core.kernels import (
    CACHE_DIR_ENV,
    DISABLE_NATIVE_ENV,
    KERNEL_CHOICES,
    NativeKernel,
    NumpyKernel,
    crc32_columns,
    get_kernel,
    native_provider,
    resolve_kernel_name,
)
from repro.core.metatelescope import MetaTelescope
from repro.core.parallel import partial_states_identical
from repro.core.pipeline import PipelineConfig, run_pipeline_accumulated
from repro.faults.injectors import CorruptedFields, DuplicatedRecords
from repro.net.family import FAMILY_IPV4, FAMILY_IPV6
from repro.net.ipv4 import parse_ip
from repro.traffic.flows import FlowTable
from repro.traffic.packets import PROTO_ICMP, PROTO_TCP, PROTO_UDP
from repro.vantage.sampling import VantageDayView
from repro.world.observe import Observatory
from repro.world.scenarios import micro_world

from _factories import fold as engine_fold, routing_for

ROUTING = routing_for("20.0.0.0/8", "21.0.0.0/8")
BASE = parse_ip("20.0.0.0") >> 8
#: The engine key (/64 id) of 2001:db8::/64.
V6_KEY = 0x2001_0DB8_0000_0000

needs_native = pytest.mark.skipif(
    native_provider() is None,
    reason=f"native degraded: {get_kernel('native').fallback_reason}",
)


def make_flows(
    dst_ip,
    src_ip=None,
    proto=PROTO_TCP,
    packets=None,
    bytes_=None,
    spoofed=False,
    sender_asn=1,
    family=FAMILY_IPV4,
):
    """A flow table from raw column values (scalars broadcast).

    IPv6 tables take uint64 /64 keys and carry ``*_ip_lo`` columns.
    """
    v6 = family == FAMILY_IPV6
    key_dtype = np.uint64 if v6 else np.uint32
    dst_ip = np.asarray(dst_ip, dtype=key_dtype)
    count = len(dst_ip)
    if src_ip is None:
        src_ip = np.full(count, V6_KEY | 7 if v6 else (BASE << 8) | 7)
    low_bits = (
        {
            "src_ip_lo": np.arange(count, dtype=np.uint64),
            "dst_ip_lo": np.arange(count, dtype=np.uint64) + np.uint64(1),
        }
        if v6
        else {}
    )
    packets = (
        np.full(count, 3, dtype=np.int64)
        if packets is None
        else np.asarray(packets, dtype=np.int64)
    )
    bytes_ = packets * 44 if bytes_ is None else np.asarray(bytes_, dtype=np.int64)
    return FlowTable(
        src_ip=np.asarray(src_ip, dtype=key_dtype),
        dst_ip=dst_ip,
        proto=np.full(count, proto, dtype=np.uint8),
        dport=np.full(count, 80, dtype=np.uint16),
        packets=packets,
        bytes=bytes_,
        sender_asn=np.full(count, sender_asn, dtype=np.int32),
        dst_asn=np.ones(count, dtype=np.int32),
        spoofed=np.full(count, spoofed, dtype=bool),
        family=family,
        **low_bits,
    )


@st.composite
def flow_tables(draw, family=FAMILY_IPV4):
    """Random flow tables spanning the family's full key range."""
    count = draw(st.integers(min_value=0, max_value=80))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31)))
    if family == FAMILY_IPV6:
        key_dtype = np.uint64
        pools = [
            # Eight /48 sites: a narrow (12-byte record) range.
            V6_KEY + (np.arange(8, dtype=np.uint64) << np.uint64(16)),
            # Full 64-bit range across the int64 sign flip.
            np.array([0, 2**64 - 1, 2**63, 2**63 - 1], dtype=np.uint64),
            # Either side of the narrow/wide record boundary.
            V6_KEY + np.array([0, 2**32 - 1, 2**32, 2**40], dtype=np.uint64),
            rng.integers(0, 2**64 - 1, size=8, dtype=np.uint64, endpoint=True),
        ]
    else:
        key_dtype = np.uint32
        pools = [
            np.array([BASE + i for i in range(8)], dtype=np.uint64) << 8,
            # Full-range keys: 0, the top of the address space, and
            # random points in between (the radix-plan regression).
            np.array([0, 2**32 - 1, 2**31, 2**16], dtype=np.uint64),
            rng.integers(0, 2**32, size=8, dtype=np.uint64),
        ]
    pool = draw(st.sampled_from(pools))
    dst_ip = rng.choice(pool, size=count).astype(key_dtype)
    src_ip = rng.choice(pool, size=count).astype(key_dtype)
    packets = rng.integers(1, 50, size=count).astype(np.int64)
    return FlowTable(
        src_ip=src_ip,
        dst_ip=dst_ip,
        proto=rng.choice(
            np.array([PROTO_TCP, PROTO_UDP, PROTO_ICMP], dtype=np.uint8),
            size=count,
        ),
        dport=rng.integers(1, 1000, size=count).astype(np.uint16),
        packets=packets,
        bytes=packets * rng.choice(np.array([40, 44, 1500]), size=count),
        sender_asn=rng.integers(1, 5, size=count).astype(np.int32),
        dst_asn=np.ones(count, dtype=np.int32),
        spoofed=rng.random(count) < 0.3,
        family=family,
    )


def fold(tables, kernel, ignored=frozenset(), compact_every=4):
    """Fold tables across two vantages/days under one backend."""
    accumulator = PrefixAccumulator(
        ignored, compact_every=compact_every, kernel=kernel
    )
    for index, table in enumerate(tables):
        accumulator.update(
            table,
            vantage=f"V{index % 2}",
            day=index % 3,
            sampling_factor=4.0 if index % 2 else 1.0,
        )
    return accumulator


def assert_backends_agree(tables, ignored=frozenset()):
    reference = fold(tables, "numpy", ignored)
    native = fold(tables, "native", ignored)
    assert partial_states_identical(reference, native)


def fold_in_c(tables, ignored=frozenset()):
    """The native fold with the reference fold forbidden: a chunk the C
    kernel declines fails the test instead of passing numpy = numpy."""
    declined = AssertionError("the native kernel declined a chunk")
    with mock.patch.object(NumpyKernel, "fold_chunk", side_effect=declined):
        return fold(tables, "native", ignored)


def assert_folds_in_c_and_agrees(tables, ignored=frozenset()):
    reference = fold(tables, "numpy", ignored)
    assert partial_states_identical(reference, fold_in_c(tables, ignored))


def traffic_columns(rng, src_ip, dst_ip):
    """``fold_chunk``'s positional columns around the given keys."""
    rows = len(dst_ip)
    return (
        src_ip,
        dst_ip,
        rng.choice(np.array([PROTO_TCP, PROTO_UDP], dtype=np.uint8), size=rows),
        rng.integers(1, 50, size=rows).astype(np.int64),
        rng.integers(40, 1500, size=rows).astype(np.int64),
    )


def parts_identical(ours, theirs):
    """Keyed parts (or tuples of them) equal array for array, bit for
    bit and dtype included."""
    if isinstance(ours, np.ndarray):
        return (
            isinstance(theirs, np.ndarray)
            and ours.dtype == theirs.dtype
            and np.array_equal(ours.view(np.int64), theirs.view(np.int64))
        )
    return len(ours) == len(theirs) and all(
        parts_identical(a, b) for a, b in zip(ours, theirs)
    )


def assert_concurrent_folds_agree(columns, block_shift, rounds=12):
    """Threads folding ``columns`` (one set each) through the shared
    native kernel all get the reference's parts, every round."""
    assert_concurrent_calls_agree(
        [
            lambda kernel, c=c: kernel.fold_chunk(*c, 2.0, block_shift)
            for c in columns
        ],
        rounds,
    )


def assert_concurrent_calls_agree(calls, rounds=12):
    """Threads repeating one call each through the process-wide native
    kernel all get what the reference returns serially, every round.

    The extension drops the GIL for the C call: threads folding through
    the process-wide native kernel once overwrote each other's pooled
    output staging (silently wrong sums).
    """
    expected = [call(get_kernel("numpy")) for call in calls]
    native = get_kernel("native")
    agreed = [0] * len(calls)

    def work(index):
        for _ in range(rounds):
            if parts_identical(calls[index](native), expected[index]):
                agreed[index] += 1

    threads = [
        threading.Thread(target=work, args=(i,)) for i in range(len(calls))
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert agreed == [rounds] * len(calls)


@needs_native
class TestFoldParity:
    def test_empty_table(self):
        assert_backends_agree([make_flows([])])

    def test_single_row(self):
        assert_backends_agree([make_flows([(BASE << 8) | 1])])

    def test_all_spoofed(self):
        ips = (np.arange(40, dtype=np.uint64) % 5 + BASE) << 8
        assert_backends_agree([make_flows(ips.astype(np.uint32), spoofed=True)])

    def test_duplicate_keys(self):
        ips = np.full(500, (BASE << 8) | 9, dtype=np.uint32)
        assert_backends_agree([make_flows(ips)])

    def test_full_range_keys(self):
        # Destinations at 0 and 2**32-1: the widest possible key range.
        # The C radix plan once computed its pass widths with a 32-bit
        # shift-by-32 (undefined behaviour) and looped forever here.
        rng = np.random.default_rng(3)
        ips = rng.integers(0, 2**32, size=500, dtype=np.uint64).astype(np.uint32)
        ips[0], ips[1] = 0, 2**32 - 1
        assert_backends_agree([make_flows(ips)])

    def test_ignored_senders_path(self):
        ips = ((np.arange(60, dtype=np.uint64) % 7 + BASE) << 8).astype(np.uint32)
        tables = [make_flows(ips, sender_asn=1), make_flows(ips, sender_asn=2)]
        assert_backends_agree(tables, ignored=frozenset({2}))

    def test_fault_injected_views(self):
        rng = np.random.default_rng(11)
        ips = rng.choice(
            np.array([(BASE + i) << 8 for i in range(6)], dtype=np.uint64), size=300
        ).astype(np.uint32)
        view = VantageDayView(vantage="V", day=0, flows=make_flows(ips))
        for injector in (
            DuplicatedRecords(duplicate_fraction=0.5),
            CorruptedFields(corrupt_fraction=0.3),
        ):
            faulted, _ = injector.inject(view, np.random.default_rng(5))
            assert_backends_agree([faulted.flows])

    def test_many_parts_exercise_merge(self):
        # compact_every=2 forces a compaction per update: the native
        # linear/k-way merges run repeatedly against the reference
        # regroup's operation order.
        rng = np.random.default_rng(23)
        tables = [
            make_flows(
                rng.integers(0, 2**32, size=50, dtype=np.uint64).astype(np.uint32)
            )
            for _ in range(6)
        ]
        reference = fold(tables, "numpy", compact_every=2)
        native = fold(tables, "native", compact_every=2)
        assert partial_states_identical(reference, native)

    @pytest.mark.parametrize("count", [2**31, 2**40, -5])
    def test_counts_outside_the_record_field(self, count):
        # The C fold packs counts into 31-bit record fields; anything
        # wider (or negative) makes it decline the chunk, which then
        # takes the reference path.
        ips = ((np.arange(30, dtype=np.uint64) % 4 + BASE) << 8).astype(np.uint32)
        packets = np.full(30, 3, dtype=np.int64)
        packets[7] = count
        assert_backends_agree([make_flows(ips, packets=packets)])

    def test_more_parts_than_the_old_head_index_merge_in_c(self):
        # 70 pending sorted parts in one family: past the 64-part head
        # index merge_k once had, one C call still merges them all —
        # with the reference regroup forbidden, a decline fails.
        rng = np.random.default_rng(29)
        tables = [
            make_flows(
                rng.integers(0, 2**32, size=20, dtype=np.uint64).astype(np.uint32)
            )
            for _ in range(70)
        ]
        reference = fold(tables, "numpy", compact_every=100)
        reference.to_state()  # compacts the reference before the ban
        native = fold(tables, "native", compact_every=100)
        declined = AssertionError("the native kernel declined a merge")
        with mock.patch.object(NumpyKernel, "group_sum", side_effect=declined):
            assert partial_states_identical(reference, native)

    def test_concurrent_folds_do_not_share_staging(self):
        rng = np.random.default_rng(31)

        def keys():
            return rng.integers(0, 2**32, size=100_000, dtype=np.uint64).astype(
                np.uint32
            )

        assert_concurrent_folds_agree(
            [traffic_columns(rng, keys(), keys()) for _ in range(3)], block_shift=8
        )

    @given(st.lists(flow_tables(), min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_property_states_identical(self, tables):
        assert_backends_agree(tables)

    @given(st.lists(flow_tables(), min_size=1, max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_property_merged_states_identical(self, tables):
        # absorb() crosses compacted parts between accumulators — the
        # merge path a parallel or federated fold takes.
        halves = {}
        for kernel in ("numpy", "native"):
            left = fold(tables[: len(tables) // 2 + 1], kernel)
            right = fold(tables[len(tables) // 2 + 1 :], kernel)
            left.merge(right)
            halves[kernel] = left
        assert partial_states_identical(halves["numpy"], halves["native"])


#: Key domains of the merge property: a narrow (32-bit) range, one
#: wider than 32 bits, and the full int64 span with both extremes.
MERGE_SPANS = ("narrow", "wide", "full")


def key_pool(rng, span, size):
    """``size`` distinct candidate keys over one of MERGE_SPANS."""
    if span == "narrow":
        pool = BASE + rng.integers(0, 2**20, size=size)
    elif span == "wide":
        pool = V6_KEY + rng.integers(0, 2**40, size=size, dtype=np.int64)
    else:
        pool = rng.integers(-(2**63), 2**63 - 1, size=size, endpoint=True)
        pool[:2] = -(2**63), 2**63 - 1
    return np.unique(pool.astype(np.int64))


def value_column(rng, rows):
    """Fractional values with -0.0 sprinkled in."""
    values = rng.normal(scale=1e3, size=rows)
    values[rng.random(rows) < 0.2] = -0.0
    return values


@st.composite
def sorted_parts(draw):
    """2-100 sorted-unique keyed parts of 1-3 columns over one pool."""
    count = draw(st.integers(min_value=2, max_value=100))
    ncols = draw(st.integers(min_value=1, max_value=3))
    span = draw(st.sampled_from(MERGE_SPANS))
    sizes = draw(
        st.lists(
            st.sampled_from([0, 1, 2, 7, 40]), min_size=count, max_size=count
        )
    )
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31)))
    pool = key_pool(rng, span, 60)
    parts = []
    for size in sizes:
        keys = np.unique(rng.choice(pool, size=size))
        parts.append(
            (keys, tuple(value_column(rng, len(keys)) for _ in range(ncols)))
        )
    return parts


def merged_in_c(parts):
    """The native merge with the reference regroup forbidden."""
    declined = AssertionError("the native kernel declined a merge")
    with mock.patch.object(NumpyKernel, "group_sum", side_effect=declined):
        return get_kernel("native").merge_sorted_parts(parts)


@needs_native
class TestMergeParity:
    """``merge_sorted_parts`` alone: the C merges against the reference
    regroup of the concatenated parts."""

    @given(sorted_parts())
    @settings(max_examples=60, deadline=None)
    def test_property_merge_identical(self, parts):
        reference = NumpyKernel().merge_sorted_parts(parts)
        assert parts_identical(merged_in_c(parts), reference)

    @pytest.mark.parametrize("span", MERGE_SPANS)
    def test_one_hundred_parts(self, span):
        rng = np.random.default_rng(41)
        pool = key_pool(rng, span, 500)
        parts = [
            (keys, (value_column(rng, len(keys)), value_column(rng, len(keys))))
            for keys in (np.unique(rng.choice(pool, size=30)) for _ in range(100))
        ]
        reference = NumpyKernel().merge_sorted_parts(parts)
        assert parts_identical(merged_in_c(parts), reference)

    def test_concurrent_merges_do_not_share_scratch(self):
        # Three threads merge 14 parts each through the one native
        # kernel, over a narrow, a wide and the full int64 key range:
        # the radix scratch is per thread, like the fold's.
        rng = np.random.default_rng(43)

        def parts(span):
            pool = key_pool(rng, span, 120_000)
            return [
                (keys, (value_column(rng, len(keys)),) * 3)
                for keys in (
                    np.unique(rng.choice(pool, size=20_000)) for _ in range(14)
                )
            ]

        assert_concurrent_calls_agree(
            [
                lambda kernel, p=parts(span): kernel.merge_sorted_parts(p)
                for span in MERGE_SPANS
            ],
            rounds=6,
        )


def v6_keys(rng, rows, span):
    """``rows`` 64-bit keys from V6_KEY to V6_KEY + span, both ends hit."""
    keys = V6_KEY + rng.integers(0, span, size=rows, dtype=np.uint64, endpoint=True)
    keys[:2] = V6_KEY, V6_KEY + span
    return keys


@st.composite
def concurrent_jobs(draw):
    """3-4 jobs for threads sharing the native kernel: a uint32 fold, a
    uint64 fold, a merge of 2-20 sorted parts, and maybe one more of
    any kind.  Each job is ``kernel -> result``."""
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    kinds = ["fold32", "fold64", "merge"]
    if draw(st.booleans()):
        kinds.append(draw(st.sampled_from(kinds)))
    jobs = []
    for kind in kinds:
        if kind == "merge":
            count = draw(st.integers(min_value=2, max_value=20))
            pool = key_pool(rng, draw(st.sampled_from(MERGE_SPANS)), 4000)
            ncols = draw(st.sampled_from([1, 3]))
            parts = [
                (keys, tuple(value_column(rng, len(keys)) for _ in range(ncols)))
                for keys in (
                    np.unique(rng.choice(pool, size=draw(
                        st.integers(min_value=0, max_value=1500)
                    )))
                    for _ in range(count)
                )
            ]
            jobs.append(lambda kernel, p=parts: kernel.merge_sorted_parts(p))
            continue
        rows = draw(st.integers(min_value=2, max_value=6000))
        if kind == "fold32":
            span = draw(st.sampled_from([2**12, 2**24, 2**32 - 1]))
            keys = [
                rng.integers(0, span, size=rows, dtype=np.uint64, endpoint=True)
                .astype(np.uint32)
                for _ in range(2)
            ]
            shift = 8
        else:
            span = draw(st.sampled_from([2**20, 2**40, 2**64 - 1 - V6_KEY]))
            keys = [v6_keys(rng, rows, span) for _ in range(2)]
            shift = 16
        columns = traffic_columns(rng, *keys)
        jobs.append(
            lambda kernel, c=columns, s=shift: kernel.fold_chunk(*c, 2.0, s)
        )
    return jobs


@needs_native
class TestThreadsShareTheNativeKernel:
    """The extension drops the GIL by hand around every kernel: threads
    folding both key widths and merging at once through the one
    process-wide kernel each get the reference's bits."""

    @given(concurrent_jobs())
    @settings(max_examples=15, deadline=None)
    def test_property_concurrent_folds_and_merges_agree(self, jobs):
        assert_concurrent_calls_agree(jobs, rounds=4)


@needs_native
class TestFold64Parity:
    """IPv6 tables (uint64 /64 keys, /48 blocks 16 bits up) fold in C."""

    def test_empty_and_single_row(self):
        assert_folds_in_c_and_agrees([make_flows([], family=FAMILY_IPV6)])
        assert_folds_in_c_and_agrees([make_flows([V6_KEY | 1], family=FAMILY_IPV6)])

    @pytest.mark.parametrize(
        "keys",
        [[0, 2**64 - 1], [2**63 - 1, 2**63]],
        ids=["zero-and-top", "int64-extremes"],
    )
    def test_full_range_keys(self, keys):
        # As the reference's int64, {0, 2**64-1} is {0, -1}; {2**63-1,
        # 2**63} spans the whole int64 range, whose width is 64 bits —
        # counting them with a shift by 64 is undefined behaviour.
        rng = np.random.default_rng(5)
        pool = np.array(keys, dtype=np.uint64)
        dst = rng.choice(pool, size=300)
        src = rng.choice(pool, size=300)
        assert_folds_in_c_and_agrees([make_flows(dst, src, family=FAMILY_IPV6)])

    def test_keys_past_the_int64_sign_bit(self):
        # The reference casts to int64, so keys >= 2**63 turn negative
        # and sort (and regroup by arithmetic shift) before the rest.
        rng = np.random.default_rng(7)
        high = rng.integers(2**63, 2**64 - 1, size=200, dtype=np.uint64, endpoint=True)
        low = rng.integers(0, 2**63, size=200, dtype=np.uint64)
        assert_folds_in_c_and_agrees(
            [
                make_flows(high, high[::-1].copy(), family=FAMILY_IPV6),
                make_flows(np.concatenate([high, low]), family=FAMILY_IPV6),
            ]
        )

    @pytest.mark.parametrize("span", [2**32 - 1, 2**32], ids=["narrow", "wide"])
    def test_record_width_boundary(self, span):
        # A range of 2**32-1 still fits the 12-/8-byte records; 2**32
        # is the first that takes the 16-byte ones.
        rng = np.random.default_rng(9)
        assert_folds_in_c_and_agrees(
            [
                make_flows(
                    v6_keys(rng, 400, span),
                    v6_keys(rng, 400, span),
                    family=FAMILY_IPV6,
                )
            ]
        )

    def test_duplicate_keys(self):
        ips = np.full(500, V6_KEY | 9, dtype=np.uint64)
        assert_folds_in_c_and_agrees([make_flows(ips, ips, family=FAMILY_IPV6)])

    def test_ignored_senders_path(self):
        rng = np.random.default_rng(13)
        ips = v6_keys(rng, 60, 2**40)
        tables = [
            make_flows(ips, sender_asn=1, family=FAMILY_IPV6),
            make_flows(ips, ips[::-1].copy(), sender_asn=2, family=FAMILY_IPV6),
        ]
        assert_folds_in_c_and_agrees(tables, ignored=frozenset({2}))

    @pytest.mark.parametrize("count", [2**31, 2**40, -5])
    def test_counts_outside_the_record_field_decline(self, count):
        # 64-bit keys change nothing about the value fields: the chunk
        # is declined, once, and the reference path folds it.
        ips = v6_keys(np.random.default_rng(17), 30, 2**40)
        packets = np.full(30, 3, dtype=np.int64)
        packets[7] = count
        tables = [make_flows(ips, packets=packets, family=FAMILY_IPV6)]
        reference = fold(tables, "numpy")
        with mock.patch.object(
            NumpyKernel, "fold_chunk", autospec=True,
            side_effect=NumpyKernel.fold_chunk,
        ) as reference_fold:
            native = fold(tables, "native")
        assert reference_fold.call_count == 1
        assert partial_states_identical(reference, native)

    def test_concurrent_folds_do_not_share_staging(self):
        # One thread's keys fit the narrow records, two need the wide
        # ones: per-thread staging sized by record width must hold.
        rng = np.random.default_rng(37)
        assert_concurrent_folds_agree(
            [
                traffic_columns(
                    rng, v6_keys(rng, 100_000, span), v6_keys(rng, 100_000, span)
                )
                for span in (2**20, 2**40, 2**64 - 1 - V6_KEY)
            ],
            block_shift=16,
        )

    @given(st.lists(flow_tables(FAMILY_IPV6), min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_property_states_identical(self, tables):
        assert_folds_in_c_and_agrees(tables)


@needs_native
def crc32_in_c(arrays):
    """``crc32_columns`` with zlib forbidden: a decline fails."""
    declined = AssertionError("the native kernel declined a checksum")
    forbidden = SimpleNamespace(crc32=mock.Mock(side_effect=declined))
    with mock.patch.object(kernels, "zlib", forbidden):
        return crc32_columns(arrays)


#: One shared buffer the drawn columns are cut from (offsets 0-15 put
#: them on every alignment).
CRC_BUFFER = np.random.default_rng(61).integers(
    0, 256, size=16 + 9 * 4096, dtype=np.uint8
)


@needs_native
class TestCrc32Parity:
    """``crc32_columns`` in C against ``zlib.crc32``, column by column."""

    @given(
        st.lists(
            st.tuples(st.integers(0, 15), st.integers(0, 4096)),
            min_size=1, max_size=9,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_property_matches_zlib(self, columns):
        arrays = [
            CRC_BUFFER[start + 4096 * i:start + 4096 * i + length]
            for i, (start, length) in enumerate(columns)
        ]
        expected = [zlib.crc32(array) for array in arrays]
        assert crc32_in_c(arrays) == expected

    def test_every_short_length_and_a_mebibyte(self):
        # Lengths either side of the fold's 64-byte floor and 16-byte
        # steps, a typed (non-byte) column, and 1 MiB.
        rng = np.random.default_rng(62)
        arrays = [CRC_BUFFER[3:3 + n] for n in range(300)]
        arrays.append(rng.integers(0, 2**32, size=2**18, dtype=np.uint32))
        arrays.append(rng.random(1001))
        expected = [zlib.crc32(array) for array in arrays]
        assert crc32_in_c(arrays) == expected
        assert arrays[-2].nbytes == 2**20

    def test_slice_of_a_real_memmap(self, tmp_path):
        path = tmp_path / "bytes.bin"
        CRC_BUFFER.tofile(path)
        mapped = np.memmap(path, dtype=np.uint8, mode="r")
        arrays = [mapped[5:5 + 4000], mapped[4101:4101 + 65], mapped[:0]]
        expected = [zlib.crc32(array) for array in arrays]
        assert crc32_in_c(arrays) == expected

    def test_concurrent_checksums_agree(self):
        # The extension drops the GIL: four threads checksum at once.
        rng = np.random.default_rng(63)
        columns = [
            [rng.integers(0, 256, size=n, dtype=np.uint8) for n in sizes]
            for sizes in ((70_000, 3), (5, 200_000, 17), (1 << 16,), (999,) * 9)
        ]
        expected = [[zlib.crc32(a) for a in arrays] for arrays in columns]
        agreed = [0] * len(columns)

        def work(index):
            for _ in range(50):
                agreed[index] += crc32_columns(columns[index]) == expected[index]

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert agreed == [50] * 4


class TestCrc32Fallback:
    def test_zlib_values_without_the_library(self, monkeypatch):
        monkeypatch.setenv(DISABLE_NATIVE_ENV, "1")
        kernels._CACHE.clear()
        try:
            arrays = [CRC_BUFFER[1:5000], CRC_BUFFER[:0]]
            assert crc32_columns(arrays) == [zlib.crc32(a) for a in arrays]
        finally:
            monkeypatch.delenv(DISABLE_NATIVE_ENV)
            kernels._CACHE.clear()

    def test_declined_checksum_takes_zlib(self, monkeypatch):
        declined = mock.Mock(return_value=None)
        stub = NativeKernel(SimpleNamespace(crc32_columns=declined))
        monkeypatch.setitem(kernels._CACHE, "native", stub)
        arrays = [CRC_BUFFER[7:7000], CRC_BUFFER[:64]]
        assert crc32_columns(arrays) == [zlib.crc32(a) for a in arrays]
        assert declined.call_count == 1
        assert crc32_columns([]) == []

    def test_strided_column_is_checksummed_as_its_bytes(self):
        strided = CRC_BUFFER[:2000:2]
        expected = zlib.crc32(np.ascontiguousarray(strided))
        assert crc32_columns([strided]) == [expected]


#: ``fold_chunk``'s positional arguments in the extension module.
FOLD_ARGS = (
    "src_ip", "dst_ip", "proto", "packets", "bytes_", "factor",
    "block_shift", "dst_keys", "dst_tcp_pk", "dst_tcp_by", "dst_tot",
    "vol_keys", "vol_pk", "src_keys", "src_pk", "raw_keys", "raw_pk",
    "bufa", "bufb",
)
#: Its int64 key outputs; the other outputs are float64 sums.
FOLD_KEY_OUTPUTS = {"dst_keys", "vol_keys", "src_keys", "raw_keys"}
#: Its outputs and scratch: what the C writes.
FOLD_WRITTEN = FOLD_ARGS[FOLD_ARGS.index("dst_keys"):]


def extension():
    """The loaded ``_kernels`` module."""
    return get_kernel("native")._ext


def fold_arguments(key_dtype=np.uint32, rows=16):
    """A valid argument list for the module's ``fold_chunk``, by name."""
    rng = np.random.default_rng(83)
    top = 2**32 - 1 if key_dtype == np.uint32 else 2**64 - 1
    src, dst = (
        rng.integers(0, top, size=rows, dtype=np.uint64, endpoint=True)
        .astype(key_dtype)
        for _ in range(2)
    )
    record = 12 if key_dtype == np.uint32 else 16
    values = list(traffic_columns(rng, src, dst)) + [2.0, 8]
    for name in FOLD_WRITTEN:
        if name in ("bufa", "bufb"):
            values.append(np.empty(record * rows, dtype=np.uint8))
        else:
            dtype = np.int64 if name in FOLD_KEY_OUTPUTS else np.float64
            values.append(np.empty(rows, dtype=dtype))
    return dict(zip(FOLD_ARGS, values))


def strided(array):
    """``array``'s values as a non-contiguous view."""
    return np.repeat(array, 2)[::2]


def misaligned(array):
    """``array``'s values in a copy off its item alignment."""
    copy = np.empty(array.nbytes + 1, dtype=np.uint8)[1:].view(array.dtype)
    copy[:] = array
    return copy


def read_only(array):
    array = array.copy()
    array.setflags(write=False)
    return array


#: (argument, replacement, error): each is refused before the C runs.
HOSTILE_FOLDS = [
    ("dst_ip", lambda a: a.astype(np.float64), TypeError),
    ("dst_ip", lambda a: a.astype(np.int32), TypeError),
    # One key width beside the other.
    ("src_ip", lambda a: a.astype(np.uint64 if a.itemsize == 4 else np.uint32),
     TypeError),
    ("dst_ip", lambda a: a.astype(np.uint16), TypeError),
    ("packets", lambda a: a.astype(np.float64), TypeError),
    ("bytes_", lambda a: a.astype(np.uint64), TypeError),
    ("proto", lambda a: a.astype(np.int8), TypeError),
    ("dst_keys", lambda a: a.astype(np.float64), TypeError),
    ("dst_tcp_pk", lambda a: np.empty(len(a), np.int64), TypeError),
    ("raw_pk", lambda a: np.empty(len(a), np.float32), TypeError),
    ("dst_ip", lambda a: a.reshape(-1, 2), ValueError),
    ("dst_keys", lambda a: a.reshape(2, -1), ValueError),
    ("dst_ip", strided, ValueError),
    ("vol_pk", strided, ValueError),
    ("packets", misaligned, ValueError),
    ("src_pk", misaligned, ValueError),
    ("proto", lambda a: a[:-1], ValueError),
    ("src_ip", lambda a: a[1:], ValueError),
    ("src_keys", lambda a: a[:-1], ValueError),
    ("bufb", lambda a: a[:-1], ValueError),
    ("bufa", lambda a: np.empty(len(a) + 1, np.uint8)[1:], ValueError),
    ("dst_tot", read_only, ValueError),
    ("dst_ip", lambda a: a.tolist(), TypeError),
    ("bufa", lambda a: bytes(len(a)), TypeError),
    ("block_shift", lambda a: 64, ValueError),
    ("block_shift", lambda a: -1, ValueError),
    ("factor", lambda a: "2", TypeError),
]

def first_part(call, keys=None, cols=None, part=None):
    """``call`` with its first part replaced, or its keys or its cols
    mapped through ``keys`` / ``cols``."""
    parts = list(call[0])
    if part is None:
        first_keys, first_cols = parts[0]
        part = (
            first_keys if keys is None else keys(first_keys),
            first_cols if cols is None else cols(first_cols),
        )
    parts[0] = part
    return [parts, *call[1:]]


def first_column(cols, replace):
    return (replace(cols[0]), *cols[1:])


#: A merge call as ``[parts, out_keys, out_cols, scratch]``; each
#: replacement maps one to a hostile variant.
HOSTILE_MERGES = {
    "parts-tuple": (lambda c: [tuple(c[0]), *c[1:]], TypeError),
    "parts-generator": (lambda c: [iter(c[0]), *c[1:]], TypeError),
    "no-parts": (lambda c: [[], *c[1:]], ValueError),
    "part-list": (lambda c: first_part(c, part=list(c[0][0])), TypeError),
    "part-triple": (
        lambda c: first_part(c, part=(*c[0][0], None)), TypeError
    ),
    "cols-list": (lambda c: first_part(c, cols=list), TypeError),
    "float-keys": (
        lambda c: first_part(c, keys=lambda k: k.astype(np.float64)), TypeError
    ),
    "uint64-keys": (
        lambda c: first_part(c, keys=lambda k: k.astype(np.uint64)), TypeError
    ),
    "int64-sums": (
        lambda c: first_part(c, cols=lambda cols: first_column(
            cols, lambda col: col.astype(np.int64))),
        TypeError,
    ),
    "ragged-column": (
        lambda c: first_part(c, cols=lambda cols: first_column(
            cols, lambda col: col[:-1])),
        ValueError,
    ),
    "missing-column": (
        lambda c: first_part(c, cols=lambda cols: cols[:-1]), ValueError
    ),
    "2d-keys": (
        lambda c: first_part(c, keys=lambda k: k.reshape(1, -1)), ValueError
    ),
    "strided-keys": (lambda c: first_part(c, keys=strided), ValueError),
    "misaligned-keys": (lambda c: first_part(c, keys=misaligned), ValueError),
    "strided-column": (
        lambda c: first_part(c, cols=lambda cols: first_column(cols, strided)),
        ValueError,
    ),
    "short-out-keys": (lambda c: [c[0], c[1][:-1], *c[2:]], ValueError),
    "short-out-col": (
        lambda c: [c[0], c[1], first_column(c[2], lambda col: col[:-1]), c[3]],
        ValueError,
    ),
    "extra-out-col": (
        lambda c: [c[0], c[1], (*c[2], c[2][0]), c[3]], ValueError
    ),
    "out-cols-list": (lambda c: [c[0], c[1], list(c[2]), c[3]], TypeError),
    "read-only-out": (
        lambda c: [c[0], read_only(c[1]), *c[2:]], ValueError
    ),
    "float-out-keys": (
        lambda c: [c[0], c[1].astype(np.float64), *c[2:]], TypeError
    ),
}
#: merge_k's scratch, on top of the shared cases.
HOSTILE_SCRATCH = {
    "short-scratch": (lambda c: [*c[:3], c[3][:-1]], ValueError),
    "misaligned-scratch": (
        lambda c: [*c[:3], np.empty(len(c[3]) + 1, np.uint8)[1:]], ValueError
    ),
    "int-scratch": (lambda c: [*c[:3], c[3].view(np.int8)], TypeError),
}


def merge_call(count, ncols=2, rows=5):
    """A valid ``[parts, out_keys, out_cols, scratch]`` merge call."""
    rng = np.random.default_rng(89)
    parts = [
        (
            np.sort(rng.choice(100, size=rows, replace=False)).astype(np.int64),
            tuple(value_column(rng, rows) for _ in range(ncols)),
        )
        for _ in range(count)
    ]
    total = count * rows
    return [
        parts,
        np.empty(total, dtype=np.int64),
        tuple(np.empty(total) for _ in range(ncols)),
        np.empty(32 * total, dtype=np.uint8),
    ]


def call_merge(name, call):
    merge = getattr(extension(), name)
    return merge(*call) if name == "merge_k" else merge(*call[:3])


@needs_native
class TestHostileArguments:
    """The module's four functions called directly with arguments the
    Python side never hands them: each raises TypeError or ValueError
    before its kernel runs — never a crash, never a read or write out
    of bounds."""

    def test_module_surface_is_the_four_functions(self):
        public = {name for name in dir(extension()) if not name.startswith("_")}
        assert public == {"fold_chunk", "merge_sorted", "merge_k", "crc32_columns"}

    @pytest.mark.parametrize("key_dtype", [np.uint32, np.uint64])
    def test_valid_fold_arguments_fold(self, key_dtype):
        args = fold_arguments(key_dtype)
        counts = extension().fold_chunk(*args.values())
        assert len(counts) == 4 and all(0 < c <= 16 for c in counts)

    @pytest.mark.parametrize(
        "name,replace,error", HOSTILE_FOLDS,
        ids=[f"{name}-{i}" for i, (name, _, _) in enumerate(HOSTILE_FOLDS)],
    )
    @pytest.mark.parametrize("key_dtype", [np.uint32, np.uint64])
    def test_hostile_fold_argument_raises(self, key_dtype, name, replace, error):
        args = fold_arguments(key_dtype)
        args[name] = replace(args[name])
        with pytest.raises(error):
            extension().fold_chunk(*args.values())

    def test_fold_argument_count(self):
        values = list(fold_arguments().values())
        for wrong in (values[:-1], values + [values[-1]], []):
            with pytest.raises(TypeError):
                extension().fold_chunk(*wrong)

    @pytest.mark.parametrize("name", FOLD_WRITTEN)
    def test_short_fold_output_is_refused_before_any_write(self, name):
        # The short array is the head of a sentinel-filled buffer: a C
        # that wrote past its end would change the tail.
        args = fold_arguments(np.uint64)
        short = args[name]
        room = np.full(len(short) + 64, 0x5A, dtype=np.uint8)
        if short.dtype != np.uint8:
            room = np.full(len(short) + 8, -7, dtype=short.dtype)
        args[name] = room[:len(short) - 1]
        with pytest.raises(ValueError, match=name):
            extension().fold_chunk(*args.values())
        assert (room == room[-1]).all()

    @pytest.mark.parametrize("case", sorted(HOSTILE_MERGES))
    @pytest.mark.parametrize("name", ["merge_sorted", "merge_k"])
    def test_hostile_merge_argument_raises(self, name, case):
        replace, error = HOSTILE_MERGES[case]
        call = merge_call(2 if name == "merge_sorted" else 3)
        assert call_merge(name, call) > 0
        with pytest.raises(error):
            call_merge(name, replace(call))

    @pytest.mark.parametrize("case", sorted(HOSTILE_SCRATCH))
    def test_hostile_merge_scratch_raises(self, case):
        replace, error = HOSTILE_SCRATCH[case]
        with pytest.raises(error):
            call_merge("merge_k", replace(merge_call(4)))

    def test_merge_sorted_takes_exactly_two_parts(self):
        for count in (1, 3):
            with pytest.raises(ValueError, match="2 parts"):
                call_merge("merge_sorted", merge_call(count))

    def test_merge_argument_count(self):
        call = merge_call(3)
        with pytest.raises(TypeError):
            extension().merge_k(*call[:3])
        with pytest.raises(TypeError):
            extension().merge_sorted(*call)

    @pytest.mark.parametrize(
        "replace,error",
        [
            (lambda c: [tuple(c[0]), c[1]], TypeError),
            (lambda c: [[strided(c[0][0])], c[1]], ValueError),
            (lambda c: [[c[0][0].reshape(2, -1)], c[1]], ValueError),
            (lambda c: [[list(c[0][0])], c[1]], TypeError),
            (lambda c: [[None], c[1]], TypeError),
            (lambda c: [c[0], c[1].astype(np.int32)], TypeError),
            (lambda c: [c[0], c[1].astype(np.uint64)], TypeError),
            (lambda c: [c[0], c[1][:-1]], ValueError),
            (lambda c: [c[0], read_only(c[1])], ValueError),
            (lambda c: [c[0]], TypeError),
        ],
        ids=[
            "columns-tuple", "strided-column", "2d-column", "list-column",
            "none-column", "int32-crcs", "uint64-crcs", "short-crcs",
            "read-only-crcs", "no-crcs",
        ],
    )
    def test_hostile_checksum_argument_raises(self, replace, error):
        columns = [CRC_BUFFER[:400].copy(), CRC_BUFFER[:4].view(np.uint32)]
        crcs = np.empty(2, dtype=np.uint32)
        assert extension().crc32_columns(columns, crcs) == 2
        with pytest.raises(error):
            extension().crc32_columns(*replace([columns, crcs]))


class TestClassificationParity:
    @given(st.lists(flow_tables(), min_size=1, max_size=3))
    @settings(max_examples=20, deadline=None)
    def test_property_classification_identical(self, tables):
        views = [
            VantageDayView(vantage=f"V{i}", day=i % 2, flows=table)
            for i, table in enumerate(tables)
        ]
        results = {
            kernel: run_pipeline_accumulated(
                engine_fold(views, chunk_size=17, kernel=kernel), ROUTING,
                PipelineConfig(),
            )
            for kernel in ("numpy", "native")
        }
        assert np.array_equal(
            results["numpy"].dark_blocks, results["native"].dark_blocks
        )
        assert np.array_equal(
            results["numpy"].gray_blocks, results["native"].gray_blocks
        )
        assert np.array_equal(
            results["numpy"].unclean_blocks, results["native"].unclean_blocks
        )
        assert results["numpy"].funnel == results["native"].funnel


class TestResolution:
    def test_choices_and_validation(self):
        assert set(KERNEL_CHOICES) == {"auto", "numpy", "native"}
        with pytest.raises(ValueError, match="kernel must be one of"):
            resolve_kernel_name("fortran")

    def test_numpy_resolves_to_reference(self):
        kernel = get_kernel("numpy")
        assert type(kernel) is NumpyKernel
        assert kernel.describe()["provider"] == "numpy"

    def test_auto_matches_provider_availability(self):
        resolved = resolve_kernel_name("auto")
        assert resolved == ("native" if native_provider() else "numpy")


class TestFallback:
    @pytest.fixture()
    def disabled_native(self, monkeypatch):
        monkeypatch.setenv(DISABLE_NATIVE_ENV, "1")
        kernels._CACHE.clear()
        yield
        monkeypatch.delenv(DISABLE_NATIVE_ENV)
        kernels._CACHE.clear()

    def test_native_degrades_to_reference(self, disabled_native):
        kernel = get_kernel("native")
        assert kernel.provider == "numpy"
        assert DISABLE_NATIVE_ENV in kernel.fallback_reason
        # Degraded native is the reference computation.
        table = make_flows(
            np.array([(BASE << 8) | 3, (BASE << 8) | 4], dtype=np.uint32)
        )
        reference = fold([table], "numpy")
        assert partial_states_identical(reference, fold([table], "native"))

    def test_auto_plans_numpy_when_degraded(self, disabled_native):
        assert native_provider() is None
        assert resolve_kernel_name("auto") == "numpy"

    def test_degraded_engine_emits_fallback_trace_event(self, disabled_native):
        views = [
            VantageDayView(
                vantage="V",
                day=0,
                flows=make_flows(np.array([(BASE << 8) | 1], dtype=np.uint32)),
            )
        ]
        sink = MemorySink()
        plan = ExecutionPlanner().plan(views, kernel="native")
        context = RunContext(sinks=(sink,))
        execute_plan(plan, views, context)
        events = [event for event in sink.events if event.kind == "kernel"]
        assert len(events) == 1
        assert events[0].meta["provider"] == "numpy"
        assert DISABLE_NATIVE_ENV in events[0].meta["fallback_reason"]

    def test_plan_still_names_native_when_degraded(self, disabled_native):
        # The knob records intent ("native"); the trace event records
        # what actually computed (the fallback) — both are provenance.
        plan = ExecutionPlanner().plan([], kernel="native")
        assert plan.knobs.kernel == "native"

    def test_failed_build_degrades_and_leaves_no_files(self, monkeypatch, tmp_path):
        # A build that *raises* (missing compiler, timeout) once left
        # its temporary .so behind — one per process start.
        monkeypatch.delenv(DISABLE_NATIVE_ENV, raising=False)
        monkeypatch.setenv("CC", "/no/such/cc")
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        kernels._CACHE.clear()
        try:
            kernel = get_kernel("native")
            assert kernel.provider == "numpy"
            assert "/no/such/cc" in kernel.fallback_reason
            assert native_provider() is None
            assert list(tmp_path.iterdir()) == []
            table = make_flows(np.array([(BASE << 8) | 3], dtype=np.uint32))
            assert partial_states_identical(
                fold([table], "numpy"), fold([table], "native")
            )
        finally:
            kernels._CACHE.clear()

    def test_build_is_keyed_by_source_hash_and_abi(
        self, monkeypatch, tmp_path
    ):
        # Two interpreters sharing one cache directory: each loads the
        # build named for its own ABI suffix, never the other's.
        monkeypatch.delenv(DISABLE_NATIVE_ENV, raising=False)
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        source = Path(kernels.__file__).with_name("_kernels.c")
        digest = hashlib.sha256(source.read_bytes()).hexdigest()[:16]
        suffix = sysconfig.get_config_var("EXT_SUFFIX")
        foreign_suffix = ".cpython-29-foreign.so"
        foreign = tmp_path / f"_kernels-{digest}{foreign_suffix}"
        foreign.write_bytes(b"another interpreter's build")
        kernels._CACHE.clear()
        try:
            kernel = get_kernel("native")
            assert kernel.fallback_reason is None
            ours = f"_kernels-{digest}{suffix}"
            assert Path(kernel._ext.__file__).name == ours
            assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
                [ours, foreign.name]
            )
            # The name is the whole key: under the foreign suffix the
            # foreign file is what would load (and it is not a module).
            get_config_var = sysconfig.get_config_var
            monkeypatch.setattr(
                kernels.sysconfig, "get_config_var",
                lambda name: foreign_suffix if name == "EXT_SUFFIX"
                else get_config_var(name),
            )
            kernels._CACHE.clear()
            degraded = get_kernel("native")
            assert degraded.provider == "numpy"
            assert f"cannot load {foreign.name}" in degraded.fallback_reason
        finally:
            kernels._CACHE.clear()

    def test_missing_python_headers_degrade_by_name(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.delenv(DISABLE_NATIVE_ENV, raising=False)
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
        empty = tmp_path / "include"
        empty.mkdir()
        paths = sysconfig.get_paths()
        monkeypatch.setattr(
            kernels.sysconfig, "get_paths",
            lambda: {**paths, "include": str(empty)},
        )
        kernels._CACHE.clear()
        try:
            kernel = get_kernel("native")
            assert kernel.provider == "numpy"
            assert "Python.h" in kernel.fallback_reason
            assert str(empty) in kernel.fallback_reason
            assert native_provider() is None
            assert resolve_kernel_name("auto") == "numpy"
            assert not (tmp_path / "cache").exists()
        finally:
            kernels._CACHE.clear()

    def test_declined_merge_takes_the_reference_path(self):
        # A declined C merge (today: a shape merge_k does not take)
        # once went straight into the output slicing.
        declined = mock.Mock(return_value=None)
        stub = SimpleNamespace(
            fold_chunk=mock.Mock(), merge_sorted=declined, merge_k=declined
        )
        kernel = NativeKernel(stub)
        rng = np.random.default_rng(47)
        for count in (2, 3):
            parts = [
                (keys, (value_column(rng, len(keys)),))
                for keys in (np.unique(rng.integers(0, 50, size=20))
                             for _ in range(count))
            ]
            assert parts_identical(
                kernel.merge_sorted_parts(parts),
                NumpyKernel().merge_sorted_parts(parts),
            )
        assert declined.call_count == 2

    def test_micro_world_identity_numpy_native_fallback(self, request):
        # The end-to-end identity gate: two days of a micro world
        # classify identically under the reference, the native backend
        # and the forced fallback.
        world = micro_world(7)
        views = Observatory(world).all_ixp_views(num_days=2)
        telescope = MetaTelescope(
            collector=world.collector,
            config=PipelineConfig(
                avg_size_threshold=world.config.avg_size_threshold,
                volume_threshold_pkts_day=world.config.volume_threshold_pkts_day,
            ),
        )

        def counts(kernel):
            result = telescope.infer(views, kernel=kernel)
            return int(result.pipeline.num_dark()), int(result.num_prefixes())

        dark = {kernel: counts(kernel) for kernel in ("numpy", "native")}
        request.getfixturevalue("disabled_native")
        assert native_provider() is None
        dark["fallback"] = counts("native")
        assert len(set(dark.values())) == 1, dark
        assert dark["numpy"][0] > 0


#: Keys the state machine draws: a dense low range (overlaps across
#: parts) plus the int64 extremes and a key past 32 bits.
MACHINE_KEYS = st.one_of(
    st.integers(min_value=0, max_value=40),
    st.sampled_from([-(2**63), 2**63 - 1, 2**32, V6_KEY]),
)
#: Integer-valued sums are exact in float64, so the dict model's
#: addition order does not matter.
MACHINE_ROWS = st.lists(
    st.tuples(MACHINE_KEYS, st.integers(-1000, 1000), st.integers(-1000, 1000)),
    max_size=12,
)


def keyed_part(rows, sorted_unique):
    """``(keys, cols)`` from drawn rows; sorted-unique keeps each key's
    first row (the model is told which rows went in)."""
    if sorted_unique:
        rows = sorted({key: (key, a, b) for key, a, b in reversed(rows)}.values())
    keys = np.array([row[0] for row in rows], dtype=np.int64)
    cols = tuple(
        np.array([row[i] for row in rows], dtype=np.float64) for i in (1, 2)
    )
    return rows, keys, cols


class KeyedSumsMachine(RuleBasedStateMachine):
    """``_KeyedSums`` under both kernels against a dict of per-key sums.

    Every rule runs on the numpy and the native family alike; after each
    step both must compact to the model, and to each other bit for bit.
    """

    def __init__(self):
        super().__init__()
        self.families = {
            name: _KeyedSums(2, compact_every=3, kernel=get_kernel(name))
            for name in ("numpy", "native")
        }
        self.model: dict[int, list[float]] = {}

    def _count(self, rows):
        for key, a, b in rows:
            sums = self.model.setdefault(key, [0.0, 0.0])
            sums[0] += a
            sums[1] += b

    @rule(rows=MACHINE_ROWS, sorted_unique=st.booleans())
    def add(self, rows, sorted_unique):
        rows, keys, cols = keyed_part(rows, sorted_unique)
        for family in self.families.values():
            family.add(keys, *cols, sorted_unique=sorted_unique)
        self._count(rows)

    @rule(
        parts=st.lists(st.tuples(MACHINE_ROWS, st.booleans()), max_size=4)
    )
    def absorb(self, parts):
        for family in self.families.values():
            other = _KeyedSums(2, compact_every=3, kernel=family.kernel)
            for rows, sorted_unique in parts:
                _, keys, cols = keyed_part(rows, sorted_unique)
                other.add(keys, *cols, sorted_unique=sorted_unique)
            family.absorb(other)
        for rows, sorted_unique in parts:
            self._count(keyed_part(rows, sorted_unique)[0])

    @rule()
    def squash_pending(self):
        for family in self.families.values():
            family.squash_pending()

    @rule()
    def compacted(self):
        for family in self.families.values():
            family.compacted()

    @rule(rows=MACHINE_ROWS)
    def copy(self, rows):
        # Carry on with the copy; the original takes one more part,
        # which the copy must not see.
        _, keys, cols = keyed_part(rows, False)
        for name, family in self.families.items():
            self.families[name] = family.copy()
            family.add(keys, *cols)

    @invariant()
    def matches_the_dict(self):
        expected_keys = np.array(sorted(self.model), dtype=np.int64)
        expected = tuple(
            np.array([self.model[k][i] for k in sorted(self.model)],
                     dtype=np.float64)
            for i in (0, 1)
        )
        states = {
            name: family.copy().compacted()
            for name, family in self.families.items()
        }
        for keys, cols in states.values():
            assert np.array_equal(keys, expected_keys)
            assert keys.dtype == np.int64
            assert all(np.array_equal(c, e) for c, e in zip(cols, expected))
        assert parts_identical(states["numpy"], states["native"])


TestKeyedSumsMachine = KeyedSumsMachine.TestCase
TestKeyedSumsMachine.settings = settings(
    max_examples=40, stateful_step_count=20, deadline=None
)

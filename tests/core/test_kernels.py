"""Kernel backend parity, fallback, and regression tests.

The identity contract under test: ``kernel=numpy`` (the reference) and
``kernel=auto`` (the bundled C extension module when it loads, the
reference otherwise) produce bit-identical accumulator states and
classifications for *any* input.  The explicit cases pin the shapes
that have bitten compiled group-by kernels: empty and single-row
chunks, all-duplicate keys, full-range 32-bit addresses (a ``uint32``
shifted by its own width is undefined behaviour in C — the regression
here once looped forever),
fault-injected feeds, the ignored-sender filter path, counts outside
the 31-bit record field, and more pending parts than the k-way merge's
old 64-entry head index held.  The batched fold is checked against the
reference's per-slice folds regrouped in slice order: 1-20 slices with
shared keys, non-integral factors and empty slices, both key widths,
either side of the record width switch.  Its source side sorts one
record per run of one source key within a slice, so batches whose
source keys come in runs of 1-1 000 rows check it too: runs that must
split at a 14-slice batch's packet field (one packet past it, and
exactly at it) and runs that continue across slice boundaries, over
uint32 keys and uint64 ranges either side of 32 bits.
64-bit IPv6 keys get the same cases plus their own: a range needing a
shift by 64, keys >= 2**63 (the reference's int64 cast turns them
negative) and ranges either side of the narrow/wide record boundary —
folded with the reference fold forbidden, so a silent decline fails.
The k-way merge is checked on its own the same way (2-100 parts, key
ranges up to the full int64 span, fractional and -0.0 values, the
reference regroup forbidden), and ``_KeyedSums`` runs as a state
machine under both kernels against a dict of per-key sums.
The CSV block parser is checked against its ``np.loadtxt`` reference:
on drawn blocks and on named hostile ones (NUL and high bytes, lone
CRs, signs, both parse types' extremes, zero padding) both decline, or
both give the same line count and the same column bytes.
The numpy-vs-native classes are skipped (not passed numpy against
numpy) on a host where the module cannot be built.
"""

import contextlib
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
    parse_csv_block,
)
from repro.core.metatelescope import MetaTelescope
from repro.core.parallel import partial_states_identical
from repro.core.pipeline import PipelineConfig, run_pipeline_accumulated
from repro.faults.injectors import CorruptedFields, DuplicatedRecords
from repro.net.family import FAMILY_IPV4, FAMILY_IPV6
from repro.net.ipv4 import parse_ip
from repro.traffic.flows import FlowTable, flow_columns
from repro.traffic.packets import PROTO_ICMP, PROTO_TCP, PROTO_UDP
from repro.vantage.sampling import VantageDayView
from repro.world.observe import Observatory
from repro.world.scenarios import micro_world

from _factories import NATIVE, fold as engine_fold, needs_native, routing_for

ROUTING = routing_for("20.0.0.0/8", "21.0.0.0/8")
BASE = parse_ip("20.0.0.0") >> 8
#: The engine key (/64 id) of 2001:db8::/64.
V6_KEY = 0x2001_0DB8_0000_0000


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


def key_pools(rng, family):
    """The family's key dtype and the key pools random tables draw from."""
    if family == FAMILY_IPV6:
        return np.uint64, [
            # Eight /48 sites: a narrow (12-byte record) range.
            V6_KEY + (np.arange(8, dtype=np.uint64) << np.uint64(16)),
            # Full 64-bit range across the int64 sign flip.
            np.array([0, 2**64 - 1, 2**63, 2**63 - 1], dtype=np.uint64),
            # Either side of the narrow/wide record boundary.
            V6_KEY + np.array([0, 2**32 - 1, 2**32, 2**40], dtype=np.uint64),
            rng.integers(0, 2**64 - 1, size=8, dtype=np.uint64, endpoint=True),
        ]
    return np.uint32, [
        np.array([BASE + i for i in range(8)], dtype=np.uint64) << 8,
        # Full-range keys: 0, the top of the address space, and random
        # points in between (the radix-plan regression).
        np.array([0, 2**32 - 1, 2**31, 2**16], dtype=np.uint64),
        rng.integers(0, 2**32, size=8, dtype=np.uint64),
    ]


@st.composite
def flow_tables(draw, family=FAMILY_IPV4):
    """Random flow tables spanning the family's full key range."""
    count = draw(st.integers(min_value=0, max_value=80))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31)))
    key_dtype, pools = key_pools(rng, family)
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


def fold(tables, kernel, ignored=frozenset(), compact=False):
    """Fold tables across two vantages/days under one backend;
    ``compact`` compacts every family after each update."""
    accumulator = PrefixAccumulator(ignored, kernel=kernel)
    for index, table in enumerate(tables):
        accumulator.update(
            table,
            vantage=f"V{index % 2}",
            day=index % 3,
            sampling_factor=4.0 if index % 2 else 1.0,
        )
        if compact:
            accumulator.compact()
    return accumulator


def assert_backends_agree(tables, ignored=frozenset()):
    reference = fold(tables, "numpy", ignored)
    native = fold(tables, "auto", ignored)
    assert partial_states_identical(reference, native)


def fold_in_c(tables, ignored=frozenset()):
    """The native fold with the reference fold forbidden: a batch the C
    kernel declines fails the test instead of passing numpy = numpy."""
    declined = AssertionError("the native kernel declined a batch")
    with mock.patch.object(NumpyKernel, "fold_batch", side_effect=declined):
        return fold(tables, "auto", ignored)


def assert_folds_in_c_and_agrees(tables, ignored=frozenset()):
    reference = fold(tables, "numpy", ignored)
    assert partial_states_identical(reference, fold_in_c(tables, ignored))


def traffic_columns(rng, src_ip, dst_ip):
    """One ``fold_batch`` slice's columns around the given keys."""
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
            and ours.tobytes() == theirs.tobytes()
        )
    return len(ours) == len(theirs) and all(
        parts_identical(a, b) for a, b in zip(ours, theirs)
    )


def as_batch(columns, factors):
    """``columns`` cut into ``len(factors)`` even slices: a
    ``fold_batch`` call's ``(slices, factors)``."""
    cuts = np.linspace(0, len(columns[0]), len(factors) + 1).astype(int)
    slices = [
        tuple(column[start:stop] for column in columns)
        for start, stop in zip(cuts[:-1], cuts[1:])
    ]
    return slices, list(factors)


def assert_concurrent_folds_agree(columns, block_shift, rounds=12):
    """Threads folding ``columns`` (one set each, as a one-slice batch
    and as a three-slice one) through the shared native kernel all get
    the reference's parts, every round."""
    assert_concurrent_calls_agree(
        [
            lambda kernel, b=as_batch(c, factors): kernel.fold_batch(
                *b, block_shift
            )
            for c in columns
            for factors in ([2.0], [2.0, 0.5, 3.25])
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
    native = get_kernel("auto")
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
        # A compaction per update: the native linear/k-way merges run
        # repeatedly against the reference regroup's operation order.
        rng = np.random.default_rng(23)
        tables = [
            make_flows(
                rng.integers(0, 2**32, size=50, dtype=np.uint64).astype(np.uint32)
            )
            for _ in range(6)
        ]
        reference = fold(tables, "numpy", compact=True)
        native = fold(tables, "auto", compact=True)
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
        # 70 sorted parts: past the 64-part head index merge_k once had,
        # one C call still merges them all — with the reference regroup
        # forbidden, a decline fails.
        rng = np.random.default_rng(29)
        parts = [
            (keys, (value_column(rng, len(keys)), value_column(rng, len(keys))))
            for keys in (
                np.unique(rng.integers(0, 2**32, size=20)) for _ in range(70)
            )
        ]
        assert parts_identical(
            merged_in_c(parts), NumpyKernel().merge_sorted_parts(parts)
        )

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
        for kernel in ("numpy", "auto"):
            left = fold(tables[: len(tables) // 2 + 1], kernel)
            right = fold(tables[len(tables) // 2 + 1 :], kernel)
            left.merge(right)
            halves[kernel] = left
        assert partial_states_identical(halves["numpy"], halves["auto"])


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
    """2-100 sorted-unique keyed parts of 0-3 columns over one pool
    (0: the per-day source key sets)."""
    count = draw(st.integers(min_value=2, max_value=100))
    ncols = draw(st.integers(min_value=0, max_value=3))
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


#: Ways a part's keys break strict ascent, each keeping the length.
#: "past-the-ends" keeps the first and last key, so a range read off
#: the ends is wrong and no cheaper check than a full walk sees it.
NOT_SORTED_UNIQUE = {
    "descending": lambda keys: keys[::-1].copy(),
    "repeated": lambda keys: np.concatenate([keys[:1], keys[:-1]]),
    "past-the-ends": lambda keys: np.concatenate(
        [keys[:1], [keys[-1] + 2**40], keys[2:]]
    ),
}


def merged_in_c(parts):
    """The native merge with the reference regroup forbidden."""
    declined = AssertionError("the native kernel declined a merge")
    with mock.patch.object(NumpyKernel, "group_sum", side_effect=declined):
        return get_kernel("auto").merge_sorted_parts(parts)


@needs_native
class TestMergeParity:
    """``merge_sorted_parts`` alone: the C merges against the reference
    regroup of the concatenated parts."""

    @given(sorted_parts())
    @settings(max_examples=60, deadline=None)
    def test_property_merge_identical(self, parts):
        reference = NumpyKernel().merge_sorted_parts(parts)
        assert parts_identical(merged_in_c(parts), reference)

    @pytest.mark.parametrize("bad", sorted(NOT_SORTED_UNIQUE))
    @pytest.mark.parametrize("count", [2, 4])
    def test_part_not_sorted_unique_takes_the_reference(self, count, bad):
        # One part breaks the order both C merges read their parts in:
        # the C declines (returns None) and the reference regroup of the
        # concatenation answers, so the merged sums are still right.
        ext = extension()
        returned = []

        def recorded(name):
            def merge(*args):
                returned.append((name, getattr(ext, name)(*args)))
                return returned[-1][1]
            return merge

        kernel = NativeKernel(SimpleNamespace(
            merge_sorted=recorded("merge_sorted"), merge_k=recorded("merge_k")
        ))
        rng = np.random.default_rng(53)
        parts = [
            (keys, (value_column(rng, len(keys)),))
            for keys in (
                np.unique(rng.integers(0, 50, size=20)) for _ in range(count)
            )
        ]
        keys, cols = parts[count // 2]
        parts[count // 2] = (NOT_SORTED_UNIQUE[bad](keys), cols)
        assert parts_identical(
            kernel.merge_sorted_parts(parts),
            NumpyKernel().merge_sorted_parts(parts),
        )
        assert returned == [("merge_sorted" if count == 2 else "merge_k", None)]

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


#: The block shift each drawn address table uses.
PASS_SHIFTS = {"empty": 8, "one-block": 8, "v4": 8, "v6-site": 16}


@st.composite
def address_tables(draw):
    """``address_pass`` arguments: a strictly ascending key table —
    empty, one /24, several /24s, or an IPv6 /48 holding more than 256
    /64 keys at shift 16 — with TCP packet estimates in (0, 1) among
    them, unforgiven source blocks, 1-7 per-day source key sets that
    overlap the table and each other, and thresholds up to +-inf."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31)))
    shape = draw(st.sampled_from(sorted(PASS_SHIFTS)))
    shift = PASS_SHIFTS[shape]
    if shape == "empty":
        keys = np.empty(0, dtype=np.int64)
    elif shape == "one-block":
        keys = (BASE << 8) + np.unique(
            rng.integers(0, 256, size=draw(st.integers(1, 40)))
        )
    elif shape == "v4":
        keys = (BASE << 8) + np.unique(
            rng.integers(0, 6 << 8, size=draw(st.integers(1, 200)))
        )
    else:
        site = np.unique(rng.integers(0, 1 << 16, size=draw(st.integers(320, 600))))
        other = np.unique(rng.integers(2 << 16, 3 << 16, size=draw(st.integers(0, 20))))
        keys = V6_KEY + np.concatenate([site, other])
    keys = keys.astype(np.int64)
    assert shape != "v6-site" or np.sum(keys >> shift == V6_KEY >> shift) > 256
    rows = len(keys)
    tcp_pkts = rng.choice([0.0, 0.25, 0.5, 1.0, 2.0, 3.0], size=rows)
    tcp_bytes = tcp_pkts * rng.choice([0.0, 40.0, 48.0, 60.0, 1500.0], size=rows)
    blocks = np.unique(keys >> shift)
    source_blocks = blocks[rng.random(len(blocks)) < 0.6]
    # A source block no address lives in, past the table's last block.
    source_blocks = np.append(source_blocks, (blocks[-1] if rows else 0) + 3)
    source_days = [
        np.unique(np.concatenate([
            keys[rng.random(rows) < 0.3],
            (keys[0] if rows else BASE << 8) + rng.integers(-5, 5, size=3),
        ]))
        for _ in range(draw(st.integers(1, 7)))
    ]
    thresholds = st.sampled_from([-np.inf, 0.0, 24.0, 44.0, 48.0, 52.0, np.inf])
    return (
        keys, tcp_pkts, tcp_bytes, shift, source_blocks, source_days,
        draw(thresholds), draw(thresholds),
    )


def passed_in_c(args):
    """The native address pass with the reference forbidden."""
    declined = AssertionError("the native kernel declined an address pass")
    with mock.patch.object(NumpyKernel, "address_pass", side_effect=declined):
        return get_kernel("auto").address_pass(*args)


@needs_native
class TestAddressPassParity:
    """``address_pass`` alone: the C walk against the numpy reference,
    every block column array-equal."""

    @given(address_tables())
    @settings(max_examples=150, deadline=None)
    def test_property_block_columns_identical(self, args):
        reference = NumpyKernel().address_pass(*args)
        assert parts_identical(passed_in_c(args), reference)

    def test_a_sourced_block_survives_on_an_unsourced_address(self):
        # Three addresses of one sourced /24 pass size; the first is a
        # source (on two days), the second is not: the block survives,
        # and its fails column reads only the 60-byte address.
        keys = (BASE << 8) + np.array([1, 2, 3, 4], dtype=np.int64)
        args = (
            keys, np.array([1.0, 1.0, 1.0, 1.0]),
            np.array([40.0, 40.0, 40.0, 60.0]), 8,
            np.array([BASE]), [keys[:1], keys[:1]], 52.0, 48.0,
        )
        columns = passed_in_c(args)
        assert parts_identical(columns, NumpyKernel().address_pass(*args))
        assert [column.tolist() for column in columns[3:]] == [
            [True], [True], [True]
        ]

    @pytest.mark.parametrize(
        "keys", [[5, 3], [5, 5], [1 << 8, 2, 3]], ids=["down", "repeat", "block-down"]
    )
    def test_keys_not_strictly_ascending_raise_in_both(self, keys):
        keys = np.array(keys, dtype=np.int64)
        args = (keys, np.ones(len(keys)), np.ones(len(keys)), 8,
                np.empty(0, dtype=np.int64), [], 44.0, 48.0)
        assert extension().address_pass(*args, *pass_outputs(len(keys))) is None
        for kernel in (NumpyKernel(), get_kernel("auto")):
            with pytest.raises(ValueError, match="sorted by destination key"):
                kernel.address_pass(*args)

    def test_concurrent_passes_agree(self):
        rng = np.random.default_rng(61)
        calls = []
        for seed in range(4):
            keys = np.unique(
                (BASE << 8) + rng.integers(0, 40 << 8, size=3000)
            ).astype(np.int64)
            args = (
                keys, rng.choice([0.0, 1.0, 2.0], size=len(keys)),
                rng.choice([0.0, 40.0, 120.0], size=len(keys)), 8,
                np.unique(keys >> 8)[::2], [keys[::3], keys[1::5]], 44.0, 48.0,
            )
            calls.append(lambda kernel, a=args: kernel.address_pass(*a))
        assert_concurrent_calls_agree(calls, rounds=6)


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
        factors = [2.0] if draw(st.booleans()) else [2.0, 0.1, 7.0]
        jobs.append(
            lambda kernel, b=as_batch(columns, factors), s=shift: (
                kernel.fold_batch(*b, s)
            )
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
            NumpyKernel, "fold_batch", autospec=True,
            side_effect=NumpyKernel.fold_batch,
        ) as reference_fold:
            native = fold(tables, "auto")
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


#: Sampling factors a batch draws from: integral ones, and fractions no
#: float holds exactly (a slice's sums then round when scaled).
BATCH_FACTORS = st.sampled_from([1.0, 4.0, 16.0, 0.1, 1 / 3, 2.5, 7.25, 1e-3])


@st.composite
def batches(draw, family=FAMILY_IPV4):
    """A ``fold_batch`` call, ``(slices, factors, block_shift)``: 1-20
    slices, some empty, drawing keys from one pool, so destination
    keys, source keys and blocks recur across slices."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31)))
    key_dtype, pools = key_pools(rng, family)
    pool = draw(st.sampled_from(pools))
    slices, factors = [], []
    for _ in range(draw(st.integers(min_value=1, max_value=20))):
        rows = draw(st.sampled_from([0, 1, 7, 40, 120]))
        keys = (rng.choice(pool, size=rows).astype(key_dtype) for _ in range(2))
        slices.append(traffic_columns(rng, *keys))
        factors.append(draw(BATCH_FACTORS))
    return slices, factors, 16 if family == FAMILY_IPV6 else 8


def batch_in_c(slices, factors, block_shift):
    """The native batched fold with the reference fold forbidden."""
    declined = AssertionError("the native kernel declined a batch")
    with mock.patch.object(NumpyKernel, "fold_batch", side_effect=declined):
        return get_kernel("auto").fold_batch(slices, factors, block_shift)


def assert_batch_in_c_agrees(slices, factors, block_shift):
    reference = NumpyKernel().fold_batch(slices, factors, block_shift)
    assert parts_identical(batch_in_c(slices, factors, block_shift), reference)


@needs_native
class TestBatchParity:
    """``fold_batch`` in C against the reference — each slice folded
    alone, the parts regrouped in slice order — bit for bit, for any
    factors: a key's total is 0.0 plus each slice's sum times its
    factor, in slice order, and a block's volume the same over its
    per-slice subtotals."""

    @given(batches())
    @settings(max_examples=60, deadline=None)
    def test_property_v4_batches_identical(self, batch):
        assert_batch_in_c_agrees(*batch)

    @given(batches(FAMILY_IPV6))
    @settings(max_examples=60, deadline=None)
    def test_property_v6_batches_identical(self, batch):
        assert_batch_in_c_agrees(*batch)

    @pytest.mark.parametrize("family", [FAMILY_IPV4, FAMILY_IPV6])
    def test_zero_row_slices(self, family):
        rng = np.random.default_rng(41)
        key_dtype, pools = key_pools(rng, family)
        shift = 16 if family == FAMILY_IPV6 else 8
        empty = traffic_columns(
            rng, np.empty(0, dtype=key_dtype), np.empty(0, dtype=key_dtype)
        )
        full = traffic_columns(
            rng, *(rng.choice(pools[0], size=50).astype(key_dtype)
                   for _ in range(2))
        )
        for layout in (
            [empty], [empty, empty], [empty, full], [full, empty],
            [empty, full, empty, full, empty],
        ):
            factors = [0.3, 2.0, 1 / 3, 5.0, 0.7][:len(layout)]
            assert_batch_in_c_agrees(layout, factors, shift)
        batch = batch_in_c([empty, empty], [1.0, 2.0], shift)
        assert all(len(part[0]) == 0 for part in (*batch[:3], *batch[3]))

    def test_no_slices_fold_nothing(self):
        args = fold_arguments(rows=0, slices=1)
        args["slices"], args["factors"] = [], np.empty(0)
        assert extension().fold_batch(*args.values()) == (0, 0, 0, ())

    @pytest.mark.parametrize("slices", [1, 4])
    @pytest.mark.parametrize("span", [2**32 - 1, 2**32], ids=["narrow", "wide"])
    def test_record_width_switch(self, span, slices):
        # A key range of 2**32-1 still sorts 32-bit offsets (8-/12-byte
        # records); 2**32 is the first that takes the 64-bit ones (16
        # bytes), with one slice and with a slice index in the records.
        rng = np.random.default_rng(43)
        columns = traffic_columns(
            rng, v6_keys(rng, 400, span), v6_keys(rng, 400, span)
        )
        assert_batch_in_c_agrees(
            *as_batch(columns, [0.7, 3.0, 1.0, 1 / 3][:slices]), 16
        )

    def test_narrow_destinations_beside_wide_sources(self):
        rng = np.random.default_rng(47)
        columns = traffic_columns(
            rng, v6_keys(rng, 300, 2**40), v6_keys(rng, 300, 2**12)
        )
        assert_batch_in_c_agrees(*as_batch(columns, [1.5, 0.25, 9.0]), 16)

    def test_a_count_outside_the_record_field_declines_the_batch(self):
        # A wide count in the last slice sends the whole batch, once,
        # to the reference.
        rng = np.random.default_rng(53)
        keys = rng.integers(0, 2**20, size=90, dtype=np.uint64).astype(np.uint32)
        slices, factors = as_batch(traffic_columns(rng, keys, keys), [1.0, 2.0, 0.5])
        packets = slices[-1][3].copy()
        packets[5] = 2**31
        slices[-1] = (*slices[-1][:3], packets, slices[-1][4])
        reference = NumpyKernel().fold_batch(slices, factors, 8)
        with mock.patch.object(
            NumpyKernel, "fold_batch", autospec=True,
            side_effect=NumpyKernel.fold_batch,
        ) as reference_fold:
            native = get_kernel("auto").fold_batch(slices, factors, 8)
        assert reference_fold.call_count == 1
        assert parts_identical(native, reference)


    def test_the_slice_index_takes_the_top_packet_bits(self):
        # A batch of k slices keeps 31 - bits(k - 1) bits for a row's
        # packets, the slice index rides above them: 14 slices leave
        # 27.  The largest count that fits folds in C, one past it
        # declines the batch to the reference — which a one-slice batch
        # of the same rows, with all 31 bits, does not.
        rng = np.random.default_rng(59)
        keys = rng.integers(0, 2**24, size=280, dtype=np.uint64).astype(np.uint32)
        columns = traffic_columns(rng, keys, keys)
        for count, declines in ((2**27 - 1, False), (2**27, True)):
            packets = columns[3].copy()
            packets[-3] = count
            wide = (*columns[:3], packets, columns[4])
            slices, factors = as_batch(wide, [1.0 + i / 4 for i in range(14)])
            if declines:
                with mock.patch.object(
                    NumpyKernel, "fold_batch", autospec=True,
                    side_effect=NumpyKernel.fold_batch,
                ) as reference_fold:
                    native = get_kernel("auto").fold_batch(slices, factors, 8)
                assert reference_fold.call_count == 1
                assert parts_identical(
                    native, NumpyKernel().fold_batch(slices, factors, 8)
                )
            else:
                assert_batch_in_c_agrees(slices, factors, 8)
            assert_batch_in_c_agrees([wide], [3.0], 8)

    @pytest.mark.parametrize("column", [3, 4], ids=["packets", "bytes"])
    @pytest.mark.parametrize("family", [FAMILY_IPV4, FAMILY_IPV6])
    def test_one_slice_keeps_all_31_count_bits(self, family, column):
        # A one-slice batch's index is 0, so the run walk keeps all 31
        # bits: 2**31 - 2 folds in C, 2**31 - 1 declines the batch,
        # once, to the reference.
        rng = np.random.default_rng(61)
        key_dtype, pools = key_pools(rng, family)
        shift = 16 if family == FAMILY_IPV6 else 8
        columns = traffic_columns(
            rng, *(rng.choice(pools[0], size=60).astype(key_dtype)
                   for _ in range(2))
        )
        for count, declines in ((2**31 - 2, False), (2**31 - 1, True)):
            wide = list(columns)
            wide[column] = columns[column].copy()
            wide[column][7] = count
            slices, factors = [tuple(wide)], [1 / 3]
            if declines:
                with mock.patch.object(
                    NumpyKernel, "fold_batch", autospec=True,
                    side_effect=NumpyKernel.fold_batch,
                ) as reference_fold:
                    native = get_kernel("auto").fold_batch(
                        slices, factors, shift
                    )
                assert reference_fold.call_count == 1
                assert parts_identical(
                    native, NumpyKernel().fold_batch(slices, factors, shift)
                )
            else:
                assert_batch_in_c_agrees(slices, factors, shift)


#: Source key pools of run-record batches, by layout: uint32 keys over
#: the full address range, uint64 keys whose range fits 32 bits
#: (narrow records) and uint64 ranges wider than 32 bits (wide ones).
RUN_KEY_POOLS = {
    "v4": (np.uint32, 8, np.array(
        [BASE << 8, (BASE << 8) | 1, (BASE + 1) << 8, ((BASE + 3) << 8) | 7,
         0, 2**32 - 1], dtype=np.uint64)),
    "v6-narrow": (np.uint64, 16, V6_KEY + np.array(
        [0, 1, 1 << 16, 5 << 16, 2**32 - 1], dtype=np.uint64)),
    "v6-wide": (np.uint64, 16, V6_KEY + np.array(
        [0, 1, 1 << 16, 2**32, 2**40 + 3], dtype=np.uint64)),
}


def packet_field(slices):
    """The largest packet sum a run record of a ``slices``-slice batch
    holds: 31 bits less the slice index's, 27 for 14 slices."""
    return 2 ** (31 - (slices - 1).bit_length()) - 1


def run_batch(seed, layout, runs, cuts, factors, packets="small"):
    """A ``fold_batch`` call, ``(slices, factors, block_shift)``, whose
    source keys come in runs: ``runs`` holds each run's length (one key
    from the layout's pool per run, so keys recur across runs), ``cuts``
    the row positions that cut the rows into ``len(factors)`` slices (a
    cut inside a run continues the run's key into the next slice).
    ``packets`` "small" draws 1-49 a row; "limit" draws counts at the
    batch's packet field (full, one below, and halves that sum to one
    past it or exactly to it), so runs have to split."""
    rng = np.random.default_rng(seed)
    key_dtype, block_shift, pool = RUN_KEY_POOLS[layout]
    run_keys = rng.choice(pool, size=len(runs))
    src = np.repeat(run_keys, runs).astype(key_dtype)
    rows = len(src)
    dst = rng.choice(pool, size=rows).astype(key_dtype)
    columns = list(traffic_columns(rng, src, dst))
    if packets == "limit":
        limit = packet_field(len(factors))
        # A one-slice field holds 2**31 - 1; a row's count stays below.
        top, half = min(limit, 2**31 - 2), (limit + 1) // 2
        columns[3] = rng.choice(
            np.array([top, top - 1, half, half - 1, 1, 0], dtype=np.int64),
            size=rows,
        )
    bounds = [0, *sorted(cuts), rows]
    slices = [
        tuple(column[start:stop] for column in columns)
        for start, stop in zip(bounds[:-1], bounds[1:])
    ]
    return slices, list(factors), block_shift


@st.composite
def run_batches(draw):
    """Run-record batches: runs of 1-1 000 rows of one source key, 1-14
    slices cut anywhere (inside runs too), small counts or counts at the
    packet field, every key layout."""
    count = draw(st.sampled_from([1, 2, 3, 14]))
    runs = draw(st.lists(
        st.one_of(st.integers(1, 4), st.integers(1, 1000)),
        min_size=1, max_size=10,
    ))
    cuts = draw(st.lists(
        st.integers(0, sum(runs)), min_size=count - 1, max_size=count - 1
    ))
    return run_batch(
        draw(st.integers(min_value=0, max_value=2**31)),
        draw(st.sampled_from(sorted(RUN_KEY_POOLS))),
        runs, cuts,
        draw(st.lists(BATCH_FACTORS, min_size=count, max_size=count)),
        draw(st.sampled_from(["small", "limit"])),
    )


@needs_native
class TestRunRecordParity:
    """The source side sorts one record per run of rows of one slice
    with one source key, its packets summed into the record, a new
    record opened whenever the sum would leave the packet field.  Every
    part stays numpy = native bit for bit."""

    @given(run_batches())
    @settings(max_examples=60, deadline=None)
    def test_property_run_batches_identical(self, batch):
        assert_batch_in_c_agrees(*batch)

    @pytest.mark.parametrize("layout", sorted(RUN_KEY_POOLS))
    def test_runs_split_at_the_field_of_a_14_slice_batch(self, layout):
        # Each slice's one run sums far past 2**27 - 1.
        limit = packet_field(14)
        slices, factors, shift = run_batch(
            71, layout, [14 * 40], range(40, 14 * 40, 40),
            [1.0 + i / 7 for i in range(14)],
        )
        slices = [
            (*columns[:3], np.full(len(columns[0]), limit, dtype=np.int64),
             columns[4])
            for columns in slices
        ]
        assert_batch_in_c_agrees(slices, factors, shift)

    @pytest.mark.parametrize("slices", [1, 14])
    def test_a_run_that_reaches_one_past_the_field_splits(self, slices):
        # Two halves sum to exactly one past the field: the second row
        # opens a record.  One packet fewer fits in one.
        limit = packet_field(slices)
        half = (limit + 1) // 2
        for second in (half, half - 1):
            batch, factors, shift = run_batch(
                73, "v6-wide", [2, 3], [2] * (slices - 1), [0.3] * slices
            )
            packets = batch[0][3].copy()
            packets[:2] = half, second
            batch[0] = (*batch[0][:3], packets, batch[0][4])
            assert_batch_in_c_agrees(batch, factors, shift)

    @pytest.mark.parametrize("layout", sorted(RUN_KEY_POOLS))
    def test_a_run_that_continues_across_a_slice_boundary(self, layout):
        # One key's run is cut by every slice boundary: each slice
        # keeps its own record of it.
        slices, factors, shift = run_batch(
            79, layout, [600], [150, 151, 420], [1.0, 2.5, 1 / 3, 7.25]
        )
        assert len({columns[0][0] for columns in slices}) == 1
        assert_batch_in_c_agrees(slices, factors, shift)


class TestTwoFactorsOneKey:
    """Two views of one day, with different factors, hit the same
    destination key and the same block: one batch, and each key total
    and block volume is 0.0 plus each view's unscaled sum times its
    factor, in view order."""

    @pytest.mark.parametrize("kernel", ["numpy", NATIVE])
    def test_sums_scale_per_view_in_view_order(self, kernel):
        key, neighbour = (BASE << 8) | 5, (BASE << 8) | 6
        views = [
            VantageDayView(
                "A", 0, make_flows([key, key, neighbour], packets=[3, 7, 2]),
                sampling_factor=0.3,
            ),
            VantageDayView("B", 0, make_flows([key], packets=[4]),
                           sampling_factor=2.5),
        ]
        accumulator = PrefixAccumulator(kernel=kernel)
        declined = AssertionError("the native kernel declined the batch")
        with mock.patch.object(
            NumpyKernel, "fold_batch", side_effect=declined
        ) if kernel == "auto" else contextlib.nullcontext():
            accumulator.update_day(0, views)
        final = accumulator.finalize()
        assert final.dst_ips.tolist() == [key, neighbour]
        assert final.ip_tcp_pkts_est.tolist() == [
            0.0 + 10 * 0.3 + 4 * 2.5, 0.0 + 2 * 0.3,
        ]
        assert final.ip_tcp_bytes_est.tolist() == [
            0.0 + 440 * 0.3 + 176 * 2.5, 0.0 + 88 * 0.3,
        ]
        assert final.vol_blocks.tolist() == [BASE]
        assert final.vol_median_est.tolist() == [0.0 + 12 * 0.3 + 4 * 2.5]


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
        monkeypatch.setattr(kernels, "_HANDLE", None)
        arrays = [CRC_BUFFER[1:5000], CRC_BUFFER[:0]]
        assert crc32_columns(arrays) == [zlib.crc32(a) for a in arrays]

    def test_declined_checksum_takes_zlib(self, monkeypatch):
        declined = mock.Mock(return_value=None)
        stub = SimpleNamespace(crc32_columns=declined)
        monkeypatch.setattr(kernels, "_HANDLE", (stub, None))
        arrays = [CRC_BUFFER[7:7000], CRC_BUFFER[:64]]
        assert crc32_columns(arrays) == [zlib.crc32(a) for a in arrays]
        assert declined.call_count == 1
        assert crc32_columns([]) == []

    def test_strided_column_is_checksummed_as_its_bytes(self):
        strided = CRC_BUFFER[:2000:2]
        expected = zlib.crc32(np.ascontiguousarray(strided))
        assert crc32_columns([strided]) == [expected]


#: Fields on a parse or range boundary, or one step past it: the signs
#: ``int()`` and numpy read differently, both parse types' extremes, the
#: flow columns' own, and zero-padded twenty-digit fields.
CSV_EDGE_FIELDS = [
    "0", "-0", "-", "--1", "1-", "1-2", "-1", "", "007",
    "00000000000000000007", "00000000000000000000",
    "000000000000000000000000000000001",
    "255", "256", "65535", "65536", "4294967295", "4294967296",
    "2147483647", "2147483648", "-2147483648", "-2147483649",
    "9223372036854775807", "9223372036854775808",
    "-9223372036854775808", "-9223372036854775809",
    "18446744073709551615", "18446744073709551616", "99999999999999999999",
]


def csv_good_field(draw, dtype):
    """A value the writer emits for a column of ``dtype``."""
    if dtype == bool:
        return str(draw(st.integers(0, 1)))
    info = np.iinfo(dtype)
    return str(draw(st.one_of(
        st.sampled_from([int(info.min), int(info.max), 0]),
        st.integers(int(info.min), int(info.max)),
    )))


@st.composite
def csv_blocks(draw):
    """``(dtypes, block)``: a flow family's column dtypes and a block of
    lines — mostly writer rows, some with an edge field, a ragged row,
    a blank line or a stray byte — LF or CRLF, its last line ending or
    not."""
    family = draw(st.sampled_from([FAMILY_IPV4, FAMILY_IPV6]))
    dtypes = list(flow_columns(family).values())
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        fields = [csv_good_field(draw, dtype) for dtype in dtypes]
        kind = draw(st.sampled_from(
            ["good", "good", "good", "edge", "blank", "ragged", "byte"]
        ))
        at = draw(st.integers(0, len(fields) - 1))
        if kind == "edge":
            fields[at] = draw(st.sampled_from(CSV_EDGE_FIELDS))
        elif kind == "ragged":
            fields = fields[:-1] if draw(st.booleans()) else fields + ["1"]
        line = "" if kind == "blank" else ",".join(fields)
        if kind == "byte":
            spot = draw(st.integers(0, len(line)))
            stray = chr(draw(st.sampled_from([0, 9, 13, 32, 43, 95, 128, 255])))
            line = line[:spot] + stray + line[spot:]
        lines.append(line + draw(st.sampled_from(["\n", "\r\n"])))
    block = "".join(lines)
    if draw(st.booleans()):
        block = block.rstrip("\r\n")
    return dtypes, block.encode("latin-1")


def assert_csv_parsers_agree(dtypes, block):
    """The C parser and the ``np.loadtxt`` reference both decline
    ``block``, or give the same line count and the same columns."""
    native = parse_csv_block(block, dtypes)
    reference = kernels._loadtxt_csv_block(block, dtypes)
    assert (native is None) == (reference is None), (block, native, reference)
    if reference is None:
        return
    (ours, lines), (theirs, their_lines) = native, reference
    assert lines == their_lines
    assert [(c.dtype, c.tobytes()) for c in ours] == [
        (c.dtype, c.tobytes()) for c in theirs
    ]


V4_CSV = list(flow_columns(FAMILY_IPV4).values())
V6_CSV = list(flow_columns(FAMILY_IPV6).values())
V4_ROW = b"16843009,33686018,6,23,1,40,65000,-1,0"
V6_ROW = b"1,2,6,23,1,40,65000,-1,1,18446744073709551615,4"

def v4_line(field=None, value=b""):
    """``V4_ROW`` with its ``bytes`` field (``field`` None) or the named
    field's text replaced by ``value``, plus an LF."""
    return V4_ROW.replace(field or b",40,", value or b",40,") + b"\n"


def v6_line(value):
    """``V6_ROW`` with its last field replaced by ``value``, plus an LF."""
    return V6_ROW.rsplit(b",", 1)[0] + b"," + value + b"\n"


#: Blocks on the plain path's edges, by name, with the family dtypes
#: they are parsed for: both parsers decline each, or parse it the same.
HOSTILE_CSV_BLOCKS = {
    "nul": (V4_CSV, V4_ROW + b"\x00\n"),
    "nul-field": (V4_CSV, v4_line(b",6,", b",\x006,")),
    "high-byte": (V4_CSV, V4_ROW + b"\n" + v4_line(b",23,", b",2\x803,")),
    "byte-ff": (V4_CSV, b"\xff" + v4_line()),
    "cr-at-end": (V4_CSV, V4_ROW + b"\r"),
    "cr-inside": (V4_CSV, V4_ROW.replace(b",6,", b",6\r,") + b"\r\n"),
    "crlf-rows": (V4_CSV, V4_ROW + b"\r\n" + V4_ROW + b"\r\n"),
    "blank-only": (V4_CSV, b"\n\r\n\n"),
    "blank-around": (V4_CSV, b"\n" + V4_ROW + b"\n\r\n" + V4_ROW + b"\n\n"),
    "lone-minus": (V4_CSV, v4_line(value=b",-,")),
    "minus-zero": (V4_CSV, v4_line(value=b",-0,")),
    "minus-zero-unsigned": (V4_CSV, v4_line(b",23,", b",-0,")),
    "minus-zero-uint64": (V6_CSV, v6_line(b"-0")),
    "double-minus": (V4_CSV, v4_line(value=b",--1,")),
    "trailing-minus": (V4_CSV, v4_line(value=b",1-,")),
    "int64-min": (V4_CSV, v4_line(value=b",-9223372036854775808,")),
    "int64-max-plus-one": (V4_CSV, v4_line(value=b",9223372036854775808,")),
    "int64-min-minus-one": (V4_CSV, v4_line(value=b",-9223372036854775809,")),
    "uint64-max": (V6_CSV, v6_line(b"18446744073709551615")),
    "uint64-max-plus-one": (V6_CSV, v6_line(b"18446744073709551616")),
    "flag-past-int64": (V4_CSV, V4_ROW[:-1] + b"9223372036854775808\n"),
    "flag-negative": (V4_CSV, V4_ROW[:-1] + b"-7\n"),
    "zero-padded": (V4_CSV, v4_line(value=b",00000000000000000040,")),
    "zero-padded-uint64": (V6_CSV, v6_line(b"00000000000000000004")),
    "zero-padded-past-uint64": (
        V6_CSV, v6_line(b"000000000000000000018446744073709551616")
    ),
    "trailing-comma": (V4_CSV, V4_ROW + b",\n"),
    "leading-comma": (V4_CSV, b"," + v4_line()),
    "empty-field": (V4_CSV, v4_line(value=b",,")),
    "no-final-newline": (V4_CSV, V4_ROW + b"\n" + V4_ROW),
    "one-row-no-newline": (V4_CSV, V4_ROW),
    "short-row": (V4_CSV, V4_ROW.rsplit(b",", 1)[0] + b"\n"),
    "long-row": (V4_CSV, V4_ROW + b",1\n"),
    "empty": (V4_CSV, b""),
}


@needs_native
class TestCsvBlockParity:
    """The C block parser against the ``np.loadtxt`` reference: the
    same declines, and otherwise the same line count and the same
    columns, dtype and bytes."""

    @settings(max_examples=300, deadline=None)
    @given(csv_blocks())
    def test_property_parsers_agree(self, drawn):
        assert_csv_parsers_agree(*drawn)

    @pytest.mark.parametrize("name", sorted(HOSTILE_CSV_BLOCKS))
    def test_hostile_block(self, name):
        assert_csv_parsers_agree(*HOSTILE_CSV_BLOCKS[name])

    def test_writer_rows_are_parsed_not_declined(self):
        block = b"\r\n".join([V4_ROW] * 5) + b"\r\n"
        columns, lines = parse_csv_block(block, V4_CSV)
        assert lines == 5
        assert [c.tolist() for c in columns] == [
            [value] * 5 for value in
            [16843009, 33686018, 6, 23, 1, 40, 65000, -1, False]
        ]
        # The outputs hold exactly the rows: no slack past the last.
        assert all(len(c) == 5 and c.base is None for c in columns)

    def test_two_mebibyte_fields(self):
        # Every digit is overflow-checked: a field of 2**21 nines
        # declines, and one of 2**21 zeros reads 0.
        assert parse_csv_block(b"9" * (1 << 21), V4_CSV[:1]) is None
        columns, lines = parse_csv_block(b"0" * (1 << 21), V4_CSV[:1])
        assert lines == 0 and columns[0].tolist() == [0]


class TestCsvBlockFallback:
    def test_reference_parses_without_the_library(self, monkeypatch):
        monkeypatch.setenv(DISABLE_NATIVE_ENV, "1")
        monkeypatch.setattr(kernels, "_HANDLE", None)
        reference = mock.Mock(wraps=kernels._loadtxt_csv_block)
        monkeypatch.setattr(kernels, "_loadtxt_csv_block", reference)
        columns, lines = parse_csv_block(V4_ROW + b"\n", V4_CSV)
        assert lines == 1 and columns[6].tolist() == [65000]
        assert reference.call_count == 1

    def test_declined_block_is_not_parsed_again(self, monkeypatch):
        # A decline hands the block to the per-row reader, not to the
        # reference: the two decline the same blocks.
        declined = mock.Mock(return_value=None)
        stub = SimpleNamespace(parse_csv_block=declined)
        monkeypatch.setattr(kernels, "_HANDLE", (stub, None))
        reference = mock.Mock(side_effect=AssertionError("reference ran"))
        monkeypatch.setattr(kernels, "_loadtxt_csv_block", reference)
        assert parse_csv_block(V4_ROW + b"\n", V4_CSV) is None
        assert declined.call_count == 1


#: ``fold_batch``'s positional arguments in the extension module.
FOLD_ARGS = (
    "slices", "factors", "block_shift", "dst_keys", "dst_tcp_pk",
    "dst_tcp_by", "vol_keys", "vol_pk", "src_keys", "raw_keys", "raw_pk",
    "bufa", "bufb",
)
#: One slice's columns, in order.
SLICE_COLUMNS = ("src_ip", "dst_ip", "proto", "packets", "bytes_")
#: Its int64 outputs; the other outputs are float64 sums.
FOLD_KEY_OUTPUTS = {"dst_keys", "vol_keys", "src_keys", "raw_keys"}
#: Its outputs and scratch: what the C writes.
FOLD_WRITTEN = FOLD_ARGS[FOLD_ARGS.index("dst_keys"):]
#: Radix record bytes by key width.
FOLD_RECORDS = {np.dtype(np.uint32): 12, np.dtype(np.uint64): 16}


def extension():
    """The loaded ``_kernels`` module."""
    return kernels._extension()[0]


def fold_arguments(key_dtype=np.uint32, rows=16, slices=2):
    """A valid argument list for the module's ``fold_batch``, by name:
    ``rows`` rows cut into ``slices`` slices."""
    rng = np.random.default_rng(83)
    top = 2**32 - 1 if key_dtype == np.uint32 else 2**64 - 1
    src, dst = (
        rng.integers(0, top, size=rows, dtype=np.uint64, endpoint=True)
        .astype(key_dtype)
        for _ in range(2)
    )
    batch, factors = as_batch(
        traffic_columns(rng, src, dst), [2.0, 0.5, 3.0][:slices]
    )
    record = FOLD_RECORDS[np.dtype(key_dtype)]
    values = [batch, np.array(factors), 8]
    for name in FOLD_WRITTEN:
        if name in ("bufa", "bufb"):
            values.append(np.empty(record * rows, dtype=np.uint8))
        else:
            dtype = np.int64 if name in FOLD_KEY_OUTPUTS else np.float64
            values.append(np.empty(rows, dtype=dtype))
    return dict(zip(FOLD_ARGS, values))


def with_hostile(args, name, replace):
    """``args`` with ``name`` replaced — a slice column in the batch's
    last slice, so checks past the first slice are exercised."""
    if name in SLICE_COLUMNS:
        columns = list(args["slices"][-1])
        at = SLICE_COLUMNS.index(name)
        columns[at] = replace(columns[at])
        args["slices"] = [*args["slices"][:-1], tuple(columns)]
    else:
        args[name] = replace(args[name])
    return args


def other_width(columns):
    """A slice whose keys take the other key width."""
    swap = np.uint64 if columns[0].itemsize == 4 else np.uint32
    return (columns[0].astype(swap), columns[1].astype(swap), *columns[2:])


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
    ("raw_pk", misaligned, ValueError),
    # Ragged slice columns.
    ("proto", lambda a: a[:-1], ValueError),
    ("src_ip", lambda a: a[1:], ValueError),
    ("src_keys", lambda a: a[:-1], ValueError),
    ("bufb", lambda a: a[:-1], ValueError),
    ("bufa", lambda a: np.empty(len(a) + 1, np.uint8)[1:], ValueError),
    ("vol_pk", read_only, ValueError),
    ("dst_ip", lambda a: a.tolist(), TypeError),
    ("bufa", lambda a: bytes(len(a)), TypeError),
    ("block_shift", lambda a: 64, ValueError),
    ("block_shift", lambda a: -1, ValueError),
    ("factors", lambda a: "2", TypeError),
    # The key widths of two slices differ.
    ("slices", lambda s: [*s[:-1], other_width(s[-1])], TypeError),
    ("bytes_", lambda a: np.concatenate([a, a]), ValueError),
    # A slice that is not a five-column tuple, and slices not a list.
    ("slices", lambda s: [*s[:-1], list(s[-1])], TypeError),
    ("slices", lambda s: [*s[:-1], s[-1][:4]], TypeError),
    ("slices", lambda s: [*s[:-1], (*s[-1], s[-1][0])], TypeError),
    ("slices", lambda s: [*s[:-1], None], TypeError),
    ("slices", tuple, TypeError),
    ("slices", lambda s: iter(s), TypeError),
    # A factor count that differs from the slice count.
    ("factors", lambda f: f[:-1], ValueError),
    ("factors", lambda f: np.append(f, 1.0), ValueError),
    ("factors", lambda f: f.astype(np.float32), TypeError),
    ("factors", lambda f: f.astype(np.int64), TypeError),
    ("factors", lambda f: f.tolist(), TypeError),
    ("factors", strided, ValueError),
    ("block_shift", lambda a: 8.0, TypeError),
]

#: The module's ``address_pass`` arguments, in order.
PASS_ARGS = (
    "dst_ips", "tcp_pkts", "tcp_bytes", "block_shift", "src_blocks", "days",
    "avg_threshold", "ip_threshold", "out_blocks", "out_pkts", "out_bytes",
    "out_sourced", "out_survives", "out_fails",
)
#: Its outputs: what the C writes.
PASS_WRITTEN = PASS_ARGS[PASS_ARGS.index("out_blocks"):]


def pass_outputs(rows):
    """``address_pass``'s output columns, room for ``rows`` blocks."""
    return [
        np.empty(rows, dtype=np.int64), np.empty(rows), np.empty(rows),
        *(np.empty(rows, dtype=np.uint8) for _ in range(3)),
    ]


def pass_arguments(rows=16):
    """A valid argument list for the module's ``address_pass``, by name."""
    rng = np.random.default_rng(97)
    keys = np.sort(rng.choice(1 << 12, size=rows, replace=False)).astype(np.int64)
    inputs = [
        keys, rng.choice([0.0, 1.0, 2.0], size=rows),
        rng.choice([0.0, 40.0, 80.0], size=rows), 8, np.unique(keys >> 8),
        [keys[::2].copy(), keys[1::3].copy()], 44.0, 48.0,
    ]
    return dict(zip(PASS_ARGS, inputs + pass_outputs(rows)))


#: (argument, replacement, error): each is refused before the C runs.
HOSTILE_PASSES = [
    ("dst_ips", lambda a: a.astype(np.uint64), TypeError),
    ("dst_ips", lambda a: a.astype(np.float64), TypeError),
    ("tcp_pkts", lambda a: a.astype(np.float32), TypeError),
    ("tcp_bytes", lambda a: a.astype(np.int64), TypeError),
    ("src_blocks", lambda a: a.astype(np.int32), TypeError),
    ("dst_ips", lambda a: a.reshape(2, -1), ValueError),
    ("dst_ips", strided, ValueError),
    ("tcp_pkts", misaligned, ValueError),
    ("src_blocks", strided, ValueError),
    ("tcp_pkts", lambda a: a[:-1], ValueError),
    ("tcp_bytes", lambda a: a[1:], ValueError),
    ("days", tuple, TypeError),
    ("days", lambda d: iter(d), TypeError),
    ("days", lambda d: [d[0].astype(np.uint64)], TypeError),
    ("days", lambda d: [d[0], strided(d[1])], ValueError),
    ("days", lambda d: [d[0].reshape(1, -1)], ValueError),
    ("days", lambda d: [d[0], None], TypeError),
    ("days", lambda d: [d[0].tolist()], TypeError),
    ("out_blocks", lambda a: a.astype(np.float64), TypeError),
    ("out_pkts", lambda a: np.empty(len(a), np.int64), TypeError),
    ("out_survives", lambda a: a.view(bool), TypeError),
    ("out_sourced", lambda a: a.astype(np.int8), TypeError),
    ("out_blocks", lambda a: a[:-1], ValueError),
    ("out_fails", lambda a: a[:-1], ValueError),
    ("out_bytes", misaligned, ValueError),
    ("out_pkts", strided, ValueError),
    ("out_sourced", read_only, ValueError),
    ("dst_ips", lambda a: a.tolist(), TypeError),
    ("block_shift", lambda a: 64, ValueError),
    ("block_shift", lambda a: -1, ValueError),
    ("block_shift", lambda a: 8.0, TypeError),
    ("avg_threshold", lambda a: "44", TypeError),
    ("ip_threshold", lambda a: None, TypeError),
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


#: ``parse_csv_block``'s kind codes for the IPv4 flow columns.
V4_KINDS = b"IIBHqqii?"


def csv_call(rows=4):
    """A valid ``[block, kinds, columns]`` call: three IPv4 rows, room
    for ``rows``."""
    return [
        (V4_ROW + b"\r\n") * 3,
        V4_KINDS,
        [np.empty(rows, dtype=dtype) for dtype in V4_CSV],
    ]


def csv_column(call, at, replace):
    """``call`` with column ``at`` mapped through ``replace``."""
    columns = list(call[2])
    columns[at] = replace(columns[at])
    return [call[0], call[1], columns]


#: A hostile ``parse_csv_block`` call, and the error it raises.
HOSTILE_CSV = {
    "block-str": (lambda c: [c[0].decode(), *c[1:]], TypeError),
    "block-uint32": (
        lambda c: [np.frombuffer(c[0][:80], np.uint32), *c[1:]], TypeError
    ),
    "block-2d": (
        lambda c: [np.frombuffer(c[0][:80], np.uint8).reshape(8, 10), *c[1:]],
        ValueError,
    ),
    "block-strided": (
        lambda c: [np.frombuffer(c[0], np.uint8)[::2], *c[1:]], ValueError
    ),
    "kinds-str": (lambda c: [c[0], c[1].decode(), c[2]], TypeError),
    "kinds-array": (
        lambda c: [c[0], np.frombuffer(c[1], np.uint8), c[2]], TypeError
    ),
    "kinds-short": (lambda c: [c[0], c[1][:-1], c[2]], ValueError),
    "kinds-long": (lambda c: [c[0], c[1] + b"q", c[2]], ValueError),
    "kinds-unknown": (lambda c: [c[0], c[1][:-1] + b"d", c[2]], ValueError),
    # int8 is a struct code, but no flow column's type.
    "kinds-int8": (lambda c: [c[0], c[1][:-1] + b"b", c[2]], ValueError),
    "kinds-nul": (lambda c: [c[0], c[1][:-1] + b"\x00", c[2]], ValueError),
    "no-columns": (lambda c: [c[0], b"", []], ValueError),
    "columns-tuple": (lambda c: [c[0], c[1], tuple(c[2])], TypeError),
    "column-none": (lambda c: csv_column(c, 0, lambda a: None), TypeError),
    "column-list": (lambda c: csv_column(c, 0, lambda a: a.tolist()), TypeError),
    "column-float": (
        lambda c: csv_column(c, 0, lambda a: a.astype(np.float64)), TypeError
    ),
    "column-signed": (
        lambda c: csv_column(c, 0, lambda a: a.astype(np.int32)), TypeError
    ),
    "column-wider": (
        lambda c: csv_column(c, 2, lambda a: a.astype(np.uint16)), TypeError
    ),
    "column-uint8-flag": (
        lambda c: csv_column(c, 8, lambda a: a.view(np.uint8)), TypeError
    ),
    "column-bool-proto": (
        lambda c: csv_column(c, 2, lambda a: a.view(bool)), TypeError
    ),
    "column-2d": (
        lambda c: csv_column(c, 4, lambda a: a.reshape(2, -1)), ValueError
    ),
    "column-strided": (lambda c: csv_column(c, 4, strided), ValueError),
    "column-misaligned": (lambda c: csv_column(c, 5, misaligned), ValueError),
    "column-read-only": (lambda c: csv_column(c, 6, read_only), ValueError),
    "column-short": (lambda c: csv_column(c, 7, lambda a: a[:-1]), ValueError),
    "column-long": (
        lambda c: csv_column(c, 0, lambda a: np.empty(len(a) + 1, a.dtype)),
        ValueError,
    ),
}


@needs_native
class TestHostileArguments:
    """The module's six functions called directly with arguments the
    Python side never hands them: each raises TypeError or ValueError
    before its kernel runs — never a crash, never a read or write out
    of bounds."""

    def test_module_surface_is_the_six_functions(self):
        public = {name for name in dir(extension()) if not name.startswith("_")}
        assert public == {
            "fold_batch", "merge_sorted", "merge_k", "crc32_columns",
            "address_pass", "parse_csv_block",
        }

    def test_valid_pass_arguments_pass(self):
        args = pass_arguments()
        assert 0 < extension().address_pass(*args.values()) <= 16

    @pytest.mark.parametrize(
        "name,replace,error", HOSTILE_PASSES,
        ids=[f"{name}-{i}" for i, (name, _, _) in enumerate(HOSTILE_PASSES)],
    )
    def test_hostile_pass_argument_raises(self, name, replace, error):
        args = pass_arguments()
        args[name] = replace(args[name])
        with pytest.raises(error):
            extension().address_pass(*args.values())

    def test_pass_argument_count(self):
        values = list(pass_arguments().values())
        for wrong in (values[:-1], values + [values[-1]], []):
            with pytest.raises(TypeError):
                extension().address_pass(*wrong)

    @pytest.mark.parametrize("name", PASS_WRITTEN)
    def test_short_pass_output_is_refused_before_any_write(self, name):
        # As for the fold: a C that wrote past the short head of a
        # sentinel-filled buffer would change its tail.
        args = pass_arguments()
        short = args[name]
        room = np.full(len(short) + 8, 0x5A, dtype=short.dtype)
        args[name] = room[:len(short) - 1]
        with pytest.raises(ValueError, match=name):
            extension().address_pass(*args.values())
        assert (room == room[-1]).all()

    @pytest.mark.parametrize("key_dtype", [np.uint32, np.uint64])
    def test_valid_fold_arguments_fold(self, key_dtype):
        for slices in (1, 2, 3):
            args = fold_arguments(key_dtype, slices=slices)
            *counts, raw_lengths = extension().fold_batch(*args.values())
            assert len(counts) == 3 and all(0 < c <= 16 for c in counts)
            assert len(raw_lengths) == slices
            assert 0 < sum(raw_lengths) <= 16

    @pytest.mark.parametrize(
        "name,replace,error", HOSTILE_FOLDS,
        ids=[f"{name}-{i}" for i, (name, _, _) in enumerate(HOSTILE_FOLDS)],
    )
    @pytest.mark.parametrize("key_dtype", [np.uint32, np.uint64])
    def test_hostile_fold_argument_raises(self, key_dtype, name, replace, error):
        args = with_hostile(fold_arguments(key_dtype), name, replace)
        with pytest.raises(error):
            extension().fold_batch(*args.values())

    def test_fold_argument_count(self):
        values = list(fold_arguments().values())
        for wrong in (values[:-1], values + [values[-1]], []):
            with pytest.raises(TypeError):
                extension().fold_batch(*wrong)

    @pytest.mark.parametrize("slices", [1, 3])
    @pytest.mark.parametrize("name", FOLD_WRITTEN)
    def test_short_fold_output_is_refused_before_any_write(self, name, slices):
        # The short array is the head of a sentinel-filled buffer: a C
        # that wrote past its end would change the tail.
        args = fold_arguments(np.uint64, slices=slices)
        short = args[name]
        room = np.full(len(short) + 64, 0x5A, dtype=np.uint8)
        if short.dtype != np.uint8:
            room = np.full(len(short) + 8, -7, dtype=short.dtype)
        args[name] = room[:len(short) - 1]
        with pytest.raises(ValueError, match=name):
            extension().fold_batch(*args.values())
        assert (room == room[-1]).all()

    @pytest.mark.parametrize("case", sorted(HOSTILE_MERGES))
    @pytest.mark.parametrize("name", ["merge_sorted", "merge_k"])
    def test_hostile_merge_argument_raises(self, name, case):
        replace, error = HOSTILE_MERGES[case]
        call = merge_call(2 if name == "merge_sorted" else 3)
        assert call_merge(name, call) > 0
        with pytest.raises(error):
            call_merge(name, replace(call))

    @pytest.mark.parametrize("bad", sorted(NOT_SORTED_UNIQUE))
    @pytest.mark.parametrize("name", ["merge_sorted", "merge_k"])
    def test_merge_declines_a_part_not_sorted_unique(self, name, bad):
        call = merge_call(2 if name == "merge_sorted" else 3)
        keys = NOT_SORTED_UNIQUE[bad](call[0][0][0])
        assert call_merge(name, first_part(call, keys=lambda _: keys)) is None

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


    def test_valid_csv_call_parses(self):
        call = csv_call()
        assert extension().parse_csv_block(*call) == (3, 3)
        assert call[2][0][:3].tolist() == [16843009] * 3
        # Any bytes-like block, any room from the rows up.
        for block in (bytearray(call[0]), memoryview(call[0])):
            assert extension().parse_csv_block(block, *call[1:]) == (3, 3)

    @pytest.mark.parametrize("case", sorted(HOSTILE_CSV))
    def test_hostile_csv_argument_raises(self, case):
        replace, error = HOSTILE_CSV[case]
        with pytest.raises(error):
            extension().parse_csv_block(*replace(csv_call()))

    def test_csv_argument_count(self):
        call = csv_call()
        for wrong in (call[:2], call + [call[2]], []):
            with pytest.raises(TypeError):
                extension().parse_csv_block(*wrong)

    def test_zero_byte_block_declines(self):
        call = csv_call()
        assert extension().parse_csv_block(b"", *call[1:]) is None
        assert extension().parse_csv_block(b"", call[1], csv_call(0)[2]) is None

    @pytest.mark.parametrize("rows", [0, 1, 2])
    def test_outputs_short_of_the_rows_decline_without_overrun(self, rows):
        # Every output the head of a sentinel-filled buffer: a C that
        # wrote a row past the room it was given would change a tail.
        call = csv_call()
        rooms = [np.full(rows + 8, 0x5A, dtype=dtype) for dtype in V4_CSV]
        call[2] = [room[:rows] for room in rooms]
        assert extension().parse_csv_block(*call) is None
        assert all((room[rows:] == room[-1]).all() for room in rooms)


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
            for kernel in ("numpy", "auto")
        }
        assert np.array_equal(
            results["numpy"].dark_blocks, results["auto"].dark_blocks
        )
        assert np.array_equal(
            results["numpy"].gray_blocks, results["auto"].gray_blocks
        )
        assert np.array_equal(
            results["numpy"].unclean_blocks, results["auto"].unclean_blocks
        )
        assert results["numpy"].funnel == results["auto"].funnel


class TestResolution:
    def test_choices_and_validation(self):
        assert KERNEL_CHOICES == ("auto", "numpy")
        with pytest.raises(ValueError, match="kernel must be one of"):
            get_kernel("fortran")

    @pytest.mark.parametrize("name", ["native", "cc"])
    def test_backend_names_are_not_knob_values(self, name):
        # ``native`` names a resolved backend, never a knob value: it
        # cannot ask for a NativeKernel that might compute in numpy.
        with pytest.raises(ValueError, match="one of auto, numpy; got"):
            get_kernel(name)
        with pytest.raises(ValueError, match="one of auto, numpy; got"):
            ExecutionPlanner().plan([], kernel=name)

    def test_numpy_resolves_to_reference(self):
        kernel = get_kernel("numpy")
        assert type(kernel) is NumpyKernel
        assert kernel.describe() == {
            "name": "numpy", "provider": "numpy", "fallback_reason": None,
        }

    def test_auto_matches_provider_availability(self):
        kernel = get_kernel("auto")
        assert get_kernel(None).describe() == kernel.describe()
        if native_provider() is None:
            assert type(kernel) is NumpyKernel
            assert kernel.fallback_reason
        else:
            assert type(kernel) is NativeKernel
            assert kernel.describe() == {
                "name": "native", "provider": "cc", "fallback_reason": None,
            }


class TestFallback:
    @pytest.fixture()
    def disabled_native(self, monkeypatch):
        monkeypatch.setenv(DISABLE_NATIVE_ENV, "1")
        monkeypatch.setattr(kernels, "_HANDLE", None)

    def assert_falls_back(self, reason):
        """``auto`` is the reference, naming ``reason``; it plans
        ``numpy``, and an engine run's ``kernel`` event names it too."""
        kernel = get_kernel("auto")
        assert type(kernel) is NumpyKernel
        assert reason in kernel.fallback_reason
        assert native_provider() is None
        plan = ExecutionPlanner().plan([])
        assert plan.knobs.kernel == "numpy"
        context = RunContext()
        execute_plan(plan, [], context)
        (event,) = context.events(["kernel"])
        assert event.name == "numpy"
        assert event.meta["provider"] == "numpy"
        assert reason in event.meta["fallback_reason"]
        return kernel

    def test_auto_falls_back_to_reference(self, disabled_native):
        self.assert_falls_back(DISABLE_NATIVE_ENV)
        table = make_flows(
            np.array([(BASE << 8) | 3, (BASE << 8) | 4], dtype=np.uint32)
        )
        reference = fold([table], "numpy")
        assert partial_states_identical(reference, fold([table], "auto"))

    def test_degraded_engine_emits_fallback_trace_event(self, disabled_native):
        views = [
            VantageDayView(
                vantage="V",
                day=0,
                flows=make_flows(np.array([(BASE << 8) | 1], dtype=np.uint32)),
            )
        ]
        sink = MemorySink()
        plan = ExecutionPlanner().plan(views, kernel="auto")
        context = RunContext(sinks=(sink,))
        execute_plan(plan, views, context)
        events = [event for event in sink.events if event.kind == "kernel"]
        assert len(events) == 1
        assert events[0].name == "numpy"
        assert events[0].meta["provider"] == "numpy"
        assert DISABLE_NATIVE_ENV in events[0].meta["fallback_reason"]

    def test_auto_plans_numpy_when_degraded(self, disabled_native):
        # The plan names what computes: with the module unavailable,
        # ``auto`` plans the reference.
        assert native_provider() is None
        plan = ExecutionPlanner().plan([], kernel="auto")
        assert plan.knobs.kernel == "numpy"
        assert plan.to_dict()["kernel"] == "numpy"
        assert ("kernel", "numpy") in plan.describe_rows()

    def test_plan_names_numpy_when_degraded(self, disabled_native):
        # A plan never says ``native`` while numpy computes: the default
        # knob (None) plans the reference, and the run's ``kernel``
        # event says why the module is unavailable.
        plan = ExecutionPlanner().plan([], kernel=None)
        assert plan.knobs.kernel == "numpy"
        context = RunContext()
        execute_plan(plan, [], context)
        (event,) = context.events(["kernel"])
        assert event.name == "numpy"
        assert DISABLE_NATIVE_ENV in event.meta["fallback_reason"]

    def test_explicit_numpy_carries_no_reason(self, disabled_native):
        # Only ``auto`` falls back; ``numpy`` is what was asked for.
        assert get_kernel("numpy").fallback_reason is None

    def test_failed_build_degrades_and_leaves_no_files(self, monkeypatch, tmp_path):
        # A build that *raises* (missing compiler, timeout) once left
        # its temporary .so behind — one per process start.
        monkeypatch.delenv(DISABLE_NATIVE_ENV, raising=False)
        monkeypatch.setenv("CC", "/no/such/cc")
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        monkeypatch.setattr(kernels, "_HANDLE", None)
        self.assert_falls_back("/no/such/cc")
        assert list(tmp_path.iterdir()) == []
        table = make_flows(np.array([(BASE << 8) | 3], dtype=np.uint32))
        assert partial_states_identical(
            fold([table], "numpy"), fold([table], "auto")
        )

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
        monkeypatch.setattr(kernels, "_HANDLE", None)
        kernel = get_kernel("auto")
        assert type(kernel) is NativeKernel
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
        monkeypatch.setattr(kernels, "_HANDLE", None)
        self.assert_falls_back(f"cannot load {foreign.name}")

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
        monkeypatch.setattr(kernels, "_HANDLE", None)
        kernel = self.assert_falls_back("Python.h")
        assert str(empty) in kernel.fallback_reason
        assert not (tmp_path / "cache").exists()

    def test_declined_merge_takes_the_reference_path(self):
        # A declined C merge (today: a shape merge_k does not take)
        # once went straight into the output slicing.
        declined = mock.Mock(return_value=None)
        stub = SimpleNamespace(
            fold_batch=mock.Mock(), merge_sorted=declined, merge_k=declined
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
        # classify identically under the reference, ``auto`` (the
        # native backend where the module loads) and the forced
        # fallback.
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

        dark = {kernel: counts(kernel) for kernel in ("numpy", "auto")}
        request.getfixturevalue("disabled_native")
        assert native_provider() is None
        dark["fallback"] = counts("auto")
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


def keyed_part(rows):
    """A sorted-unique ``(keys, cols)`` part from drawn rows: each key's
    first row (the model is told which rows went in)."""
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
            name: _KeyedSums(2, kernel=get_kernel(name))
            for name in ("numpy", "auto")
        }
        self.model: dict[int, list[float]] = {}

    def _count(self, rows):
        for key, a, b in rows:
            sums = self.model.setdefault(key, [0.0, 0.0])
            sums[0] += a
            sums[1] += b

    @rule(rows=MACHINE_ROWS)
    def add(self, rows):
        rows, keys, cols = keyed_part(rows)
        for family in self.families.values():
            family.add(keys, *cols)
        self._count(rows)

    @rule(parts=st.lists(MACHINE_ROWS, max_size=4))
    def absorb(self, parts):
        for family in self.families.values():
            other = _KeyedSums(2, kernel=family.kernel)
            for rows in parts:
                _, keys, cols = keyed_part(rows)
                other.add(keys, *cols)
            family.absorb(other)
        for rows in parts:
            self._count(keyed_part(rows)[0])

    @rule()
    def compacted(self):
        for family in self.families.values():
            family.compacted()

    @rule(rows=MACHINE_ROWS)
    def copy(self, rows):
        # Carry on with the copy; the original takes one more part,
        # which the copy must not see.
        _, keys, cols = keyed_part(rows)
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
        assert parts_identical(states["numpy"], states["auto"])


TestKeyedSumsMachine = KeyedSumsMachine.TestCase
TestKeyedSumsMachine.settings = settings(
    max_examples=40, stateful_step_count=20, deadline=None
)

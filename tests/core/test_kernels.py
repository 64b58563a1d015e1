"""Kernel backend parity, fallback, and regression tests.

The identity contract under test: ``kernel=numpy`` (the reference) and
``kernel=native`` (the bundled C library, or the silent numpy fallback)
produce bit-identical accumulator states and classifications for *any*
input.  The explicit cases pin the shapes that have bitten compiled
group-by kernels: empty and single-row chunks, all-duplicate keys,
full-range 32-bit addresses (a ``uint32`` shifted by its own width is
undefined behaviour in C — the regression here once looped forever),
fault-injected feeds, the ignored-sender filter path, counts outside
the 31-bit record field, and more parts than the k-way merge holds.
64-bit IPv6 keys get the same cases plus their own: a range needing a
shift by 64, keys >= 2**63 (the reference's int64 cast turns them
negative) and ranges either side of the narrow/wide record boundary —
folded with the reference fold forbidden, so a silent decline fails.
The numpy-vs-native classes are skipped (not passed numpy against
numpy) on a host where the library cannot be built.
"""

import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.accum import PrefixAccumulator
from repro.core.engine import ExecutionPlanner, MemorySink, RunContext, execute_plan
from repro.core import kernels
from repro.core.kernels import (
    CACHE_DIR_ENV,
    DISABLE_NATIVE_ENV,
    KERNEL_CHOICES,
    NumpyKernel,
    get_kernel,
    native_provider,
    resolve_kernel_name,
)
from repro.core.metatelescope import MetaTelescope
from repro.core.parallel import partial_states_identical
from repro.core.pipeline import PipelineConfig, run_pipeline
from repro.faults.injectors import CorruptedFields, DuplicatedRecords
from repro.net.family import FAMILY_IPV4, FAMILY_IPV6
from repro.net.ipv4 import parse_ip
from repro.traffic.flows import FlowTable
from repro.traffic.packets import PROTO_ICMP, PROTO_TCP, PROTO_UDP
from repro.vantage.sampling import VantageDayView
from repro.world.observe import Observatory
from repro.world.scenarios import micro_world

from _factories import routing_for

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


def assert_concurrent_folds_agree(columns, block_shift, rounds=12):
    """Threads folding ``columns`` (one set each) through the shared
    native kernel all get the reference's parts, every round.

    ctypes drops the GIL for the C call: threads folding through the
    process-wide native kernel once overwrote each other's pooled
    output staging (silently wrong sums).
    """

    def same(ours, theirs):
        return all(
            np.array_equal(a[0], b[0])
            and all(np.array_equal(x, y) for x, y in zip(a[1], b[1]))
            for a, b in zip(ours, theirs)
        )

    expected = [
        get_kernel("numpy").fold_chunk(*c, 2.0, block_shift) for c in columns
    ]
    native = get_kernel("native")
    agreed = [0] * len(columns)

    def work(index):
        for _ in range(rounds):
            folded = native.fold_chunk(*columns[index], 2.0, block_shift)
            if same(folded, expected[index]):
                agreed[index] += 1

    threads = [
        threading.Thread(target=work, args=(i,)) for i in range(len(columns))
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
    assert agreed == [rounds] * len(columns)


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

    def test_more_parts_than_the_kway_merge_holds(self):
        # 70 pending sorted parts in one family: past merge_k's 64-part
        # head index, the native merge chains pairwise instead.
        rng = np.random.default_rng(29)
        tables = [
            make_flows(
                rng.integers(0, 2**32, size=20, dtype=np.uint64).astype(np.uint32)
            )
            for _ in range(70)
        ]
        reference = fold(tables, "numpy", compact_every=100)
        native = fold(tables, "native", compact_every=100)
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


def v6_keys(rng, rows, span):
    """``rows`` 64-bit keys from V6_KEY to V6_KEY + span, both ends hit."""
    keys = V6_KEY + rng.integers(0, span, size=rows, dtype=np.uint64, endpoint=True)
    keys[:2] = V6_KEY, V6_KEY + span
    return keys


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
class TestClassificationParity:
    @given(st.lists(flow_tables(), min_size=1, max_size=3))
    @settings(max_examples=20, deadline=None)
    def test_property_classification_identical(self, tables):
        views = [
            VantageDayView(vantage=f"V{i}", day=i % 2, flows=table)
            for i, table in enumerate(tables)
        ]
        results = {
            kernel: run_pipeline(
                views, ROUTING, PipelineConfig(), chunk_size=17, kernel=kernel
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

"""Property tests: the one-sort duplicate share is the exact one.

``np.unique(key, axis=0)`` over the compared columns — six for IPv4,
eight for IPv6, whose rows also carry the low 64 address bits — is the
definition (and the former implementation); it stays here as the
oracle the sort-then-settle scorer must reproduce bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import DuplicatedRecords
from repro.faults.quality import _duplicate_fraction, score_feed
from repro.traffic.flows import FlowTable, flow_columns

#: Tiny per-column value pools, so generated rows collide often and in
#: every pattern: equal everywhere, equal on the address pair only,
#: equal on everything *but* one column.
POOLS = {
    "src_ip": (0x14000001, 0x14000002, 0x27000001),
    "dst_ip": (0x15000001, 0x15000002, 0),
    "proto": (6, 17),
    "dport": (23, 443),
    "packets": (1, 2, 0),
    "bytes": (40, 80),
}
#: IPv6 engine keys are 64-bit: sources that differ only above bit 32
#: share the scorer's address-pair sort key without being equal, and
#: rows that differ only in the low 64 address bits share the /64 ids.
POOLS_V6 = {
    **POOLS,
    "src_ip": (1, 1 + (1 << 32), 1 + (1 << 45), 2),
    "dst_ip": (7, 7 + (1 << 32), (1 << 62) + 7),
    "src_ip_lo": (0, 1, 1 << 63),
    "dst_ip_lo": (5, 5 + (1 << 40)),
}


def columns_of(family: str) -> tuple[str, ...]:
    return tuple(POOLS_V6 if family == "ipv6" else POOLS)


def dense_duplicate_fraction(flows: FlowTable) -> float:
    """The pre-sparse ``_duplicate_fraction``, kept as the oracle."""
    if len(flows) == 0:
        return 0.0
    key = np.column_stack(
        [
            getattr(flows, name).astype(np.int64)
            for name in columns_of(flows.family)
        ]
    )
    return 1.0 - len(np.unique(key, axis=0)) / len(flows)


def table(rows: list[tuple], family: str) -> FlowTable:
    dtypes = flow_columns(family)
    columns = {
        name: np.array([row[i] for row in rows], dtype=dtypes[name])
        for i, name in enumerate(columns_of(family))
    }
    return FlowTable(
        **columns,
        sender_asn=np.ones(len(rows), dtype=np.int32),
        dst_asn=np.ones(len(rows), dtype=np.int32),
        family=family,
    )


@st.composite
def colliding_tables(draw):
    family = draw(st.sampled_from(["ipv4", "ipv6"]))
    pools = POOLS_V6 if family == "ipv6" else POOLS
    row = st.tuples(*(st.sampled_from(pools[name]) for name in pools))
    return table(draw(st.lists(row, min_size=0, max_size=50)), family)


@st.composite
def one_column_apart(draw):
    """Copies of one row, each altered in at most one column."""
    family = draw(st.sampled_from(["ipv4", "ipv6"]))
    pools = POOLS_V6 if family == "ipv6" else POOLS
    columns = columns_of(family)
    base = [pools[name][0] for name in columns]
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=30))):
        row = list(base)
        column = draw(st.integers(min_value=0, max_value=len(columns)))
        if column < len(columns):
            row[column] = draw(st.sampled_from(pools[columns[column]]))
        rows.append(tuple(row))
    return table(rows, family)


class TestDuplicateFraction:
    @given(colliding_tables())
    @settings(max_examples=300, deadline=None)
    def test_matches_unique_rows_on_colliding_tables(self, flows):
        assert _duplicate_fraction(flows) == dense_duplicate_fraction(flows)

    @given(one_column_apart())
    @settings(max_examples=300, deadline=None)
    def test_rows_equal_in_every_column_but_one(self, flows):
        assert _duplicate_fraction(flows) == dense_duplicate_fraction(flows)

    @given(
        st.sampled_from(["ipv4", "ipv6"]), st.integers(min_value=0, max_value=40)
    )
    def test_identical_single_and_empty_tables(self, family, count):
        pools = POOLS_V6 if family == "ipv6" else POOLS
        row = tuple(pools[name][-1] for name in pools)
        flows = table([row] * count, family)
        assert _duplicate_fraction(flows) == dense_duplicate_fraction(flows)
        if count:
            assert _duplicate_fraction(flows) == 1.0 - 1 / count

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=25, deadline=None)
    def test_duplicated_records_injector_output(self, day0, fraction, seed):
        view = next(iter(day0.ixp_views.values()))
        doubled, _ = DuplicatedRecords(duplicate_fraction=fraction).inject(
            view, np.random.default_rng(seed)
        )
        assert _duplicate_fraction(doubled.flows) == dense_duplicate_fraction(
            doubled.flows
        )


def test_feed_quality_of_world_views_matches_the_dense_score(day0):
    """Every view of a world day, as delivered and with 20 % of its rows
    re-emitted: the scored duplicate share is the dense one, exactly."""
    clean = list(day0.ixp_views.values())
    rng = np.random.default_rng(5)
    doubled = [
        DuplicatedRecords(duplicate_fraction=0.2).inject(view, rng)[0]
        for view in clean
    ]
    for views in (clean, doubled):
        for view in views:
            assert _duplicate_fraction(view.flows) == dense_duplicate_fraction(
                view.flows
            )
        weights = np.array([len(view.flows) for view in views], dtype=np.float64)
        expected = float(
            np.dot(weights, [dense_duplicate_fraction(v.flows) for v in views])
            / weights.sum()
        )
        quality = score_feed(0, views)
        assert quality.duplicate_fraction == expected
        assert quality.total_flows == int(weights.sum())
    assert score_feed(0, doubled).duplicate_fraction > 0.15

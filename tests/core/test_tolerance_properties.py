"""Property tests: the sparse spoofing tolerance is its dense definition.

The dense form — a ``|baseline|``-long count vector per vantage handed
to ``np.quantile(..., method="higher")`` — is how paper §7.2 reads and
how the tolerance used to be computed.  It lives on here only as the
oracle the sparse implementation must reproduce ``==``, and it sums the
source packets per unrouted /24 straight from the views' flows, so it
shares no aggregation with the accumulator it checks.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.spoofing_tolerance import (
    _zero_padded_quantile,
    baseline_runs,
    tolerances_from_accumulator,
)
from repro.net.ipv4 import parse_ip

from _factories import fold, ip, make_view

UNROUTED = np.arange(parse_ip("39.0.0.0") >> 8, (parse_ip("39.0.0.0") >> 8) + 60)
ROUTED = parse_ip("20.0.0.0") >> 8
QUANTILES = (0.5, 0.9, 0.99, 0.999, 0.9999, 1.0)


def dense_tolerances(views, unrouted_blocks, quantile):
    """The dense definition, read straight off the views' flows."""
    unrouted = np.unique(np.asarray(unrouted_blocks, dtype=np.int64))
    pooled = {}
    for view in views:
        counts = pooled.setdefault(view.vantage, np.zeros(len(unrouted)))
        src_blocks = view.flows.src_blocks()
        inside = np.isin(src_blocks, unrouted)
        np.add.at(
            counts,
            np.searchsorted(unrouted, src_blocks[inside]),
            view.flows.packets[inside],
        )
    return {
        vantage: float(np.quantile(counts, quantile, method="higher"))
        for vantage, counts in pooled.items()
    }


@st.composite
def padded_samples(draw):
    """(seen sums, total entries, quantile) with m <= n, n in [1, 400]."""
    total = draw(st.integers(min_value=1, max_value=400))
    seen = draw(
        st.lists(
            st.integers(min_value=-6, max_value=40), min_size=0, max_size=total
        )
    )
    ranks = st.integers(min_value=1, max_value=max(total - 1, 1))
    quantile = draw(
        st.one_of(
            st.sampled_from(QUANTILES),
            st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
            # (n - 1) * q lands on (or an ulp beside) an integer rank.
            ranks.map(lambda rank: min(rank / max(total - 1, 1), 1.0)),
        )
    )
    return seen, total, quantile


class TestZeroPaddedQuantile:
    @given(padded_samples(), st.sampled_from([np.int64, np.float64]))
    @settings(max_examples=400, deadline=None)
    def test_equals_numpy_on_the_dense_vector(self, sample, dtype):
        seen, total, quantile = sample
        dense = np.zeros(total)
        dense[: len(seen)] = seen
        np.random.default_rng(len(seen)).shuffle(dense)
        expected = float(np.quantile(dense, quantile, method="higher"))
        got = _zero_padded_quantile(np.array(seen, dtype=dtype), total, quantile)
        assert got == expected
        assert isinstance(got, float)

    def test_rank_is_numpys_rank(self):
        # 0.9999 * 10000 is not 9999 in floating point; both sides must
        # round the same way or the tolerance jumps one order statistic.
        for total in (2, 11, 101, 8193, 10001):
            for quantile in QUANTILES:
                assert math.ceil((total - 1) * quantile) == int(
                    np.ceil((total - 1) * np.float64(quantile))
                )


@st.composite
def campaigns(draw):
    """Multi-day, multi-vantage views with sources in and around the
    unrouted baseline; the baseline itself unsorted with repeats."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31)))
    views = []
    for vantage in draw(
        st.lists(st.sampled_from("ABCD"), min_size=1, max_size=3, unique=True)
    ):
        for day in range(draw(st.integers(min_value=1, max_value=3))):
            count = int(rng.integers(0, 40))
            pool = np.concatenate(
                [UNROUTED, UNROUTED[:1] - 3, UNROUTED[-1:] + 2, [ROUTED, ROUTED + 1]]
            )
            rows = [
                {
                    "src_ip": ip(int(block), host=int(rng.integers(1, 4))),
                    "dst_ip": ip(ROUTED + 700),
                    "packets": int(rng.integers(0, 9)),
                }
                for block in rng.choice(pool, size=count)
            ]
            rows.append({"dst_ip": ip(ROUTED)})
            views.append(make_view(rows, vantage=vantage, day=day))
    baseline = rng.permutation(np.concatenate([UNROUTED, UNROUTED[:7]]))
    return views, baseline


class TestSparseEqualsDense:
    @given(campaigns(), st.sampled_from(QUANTILES))
    @settings(max_examples=60, deadline=None)
    def test_views_accumulator_and_dense_agree(self, campaign, quantile):
        views, baseline = campaign
        expected = dense_tolerances(views, baseline, quantile)
        accumulator = fold(views, chunk_size=7)
        assert tolerances_from_accumulator(accumulator, baseline, quantile) == expected
        for view in views:
            assert tolerances_from_accumulator(
                fold([view]), baseline, quantile
            ) == dense_tolerances([view], baseline, quantile)

    def test_on_world_views(self, world, day0):
        views = list(day0.ixp_views.values())
        baseline = world.unrouted_baseline_blocks
        accumulator = fold(views)
        for quantile in QUANTILES:
            expected = dense_tolerances(views, baseline, quantile)
            assert (
                tolerances_from_accumulator(accumulator, baseline, quantile)
                == expected
            )


@st.composite
def fragmented_campaigns(draw):
    """Views whose sources fall in, between and around a baseline of
    scattered runs: single-block runs, runs below or above every source
    a vantage sent, or one run only."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31)))
    base = int(UNROUTED[0])
    lengths = draw(st.lists(st.integers(1, 4), min_size=1, max_size=8))
    gaps = draw(
        st.lists(st.integers(1, 5), min_size=len(lengths), max_size=len(lengths))
    )
    runs, at = [], base
    for gap, length in zip(gaps, lengths):
        at += gap
        runs.append(np.arange(at, at + length))
        at += length
    # Runs far outside any source block, on either side.
    outside = draw(st.sampled_from([[], [base - 400], [at + 400, at + 401, at + 900]]))
    baseline = rng.permutation(
        np.concatenate(runs + [np.array(outside, dtype=np.int64)])
    )
    pool = np.arange(base - 2, at + 3)
    views = []
    for vantage in draw(
        st.lists(st.sampled_from("ABC"), min_size=1, max_size=3, unique=True)
    ):
        for day in range(draw(st.integers(min_value=1, max_value=2))):
            # A vantage may see sources in only part of the pool.
            lo = int(rng.integers(0, len(pool)))
            rows = [
                {
                    "src_ip": ip(int(block), host=int(rng.integers(1, 4))),
                    "dst_ip": ip(ROUTED + 700),
                    "packets": int(rng.integers(0, 9)),
                }
                for block in rng.choice(pool[lo:], size=int(rng.integers(0, 30)))
            ]
            rows.append({"dst_ip": ip(ROUTED)})
            views.append(make_view(rows, vantage=vantage, day=day))
    return views, baseline


class TestBaselineRuns:
    """The tolerance slices each vantage's sorted source blocks by the
    baseline's runs; the dense count vector is the oracle."""

    @given(fragmented_campaigns(), st.sampled_from(QUANTILES), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_runs_equal_the_dense_quantile(self, campaign, quantile, derived):
        views, baseline = campaign
        expected = dense_tolerances(views, baseline, quantile)
        unrouted = baseline_runs(baseline) if derived else baseline
        assert tolerances_from_accumulator(fold(views), unrouted, quantile) == expected

    def test_one_run_and_single_block_runs(self):
        base = int(UNROUTED[0])
        views = [
            make_view(
                [
                    {
                        "src_ip": ip(base + offset),
                        "dst_ip": ip(ROUTED),
                        "packets": packets,
                    }
                    for offset, packets in ((0, 5), (1, 3), (3, 7), (9, 2))
                ],
                vantage="A",
            )
        ]
        for baseline in (
            np.arange(base, base + 10),          # one run
            np.array([base, base + 3, base + 9]),  # single-block runs
            np.array([base + 20, base + 40]),      # past every source
        ):
            runs = baseline_runs(baseline)
            assert runs.size == len(baseline)
            for quantile in QUANTILES:
                assert tolerances_from_accumulator(
                    fold(views), runs, quantile
                ) == dense_tolerances(views, baseline, quantile)
        runs = baseline_runs(np.array([base + 3, base, base + 9, base + 1, base]))
        assert runs.edges.tolist() == [
            base, base + 2, base + 3, base + 4, base + 9, base + 10
        ]
        assert runs.size == 4


class TestValidation:
    VIEW = make_view([{"dst_ip": ip(ROUTED)}])

    def entry_points(self):
        # One door: a single-view fold and a chunked window fold.
        return [
            lambda *args: tolerances_from_accumulator(fold([self.VIEW]), *args),
            lambda *args: tolerances_from_accumulator(
                fold([self.VIEW, self.VIEW], chunk_size=1), *args
            ),
        ]

    @pytest.mark.parametrize("quantile", [0, 0.0, -0.1, 1.5, float("nan")])
    def test_every_entry_point_rejects_a_bad_quantile(self, quantile):
        for call in self.entry_points():
            with pytest.raises(ValueError, match="quantile out of range: "):
                call(UNROUTED, quantile)

    def test_every_entry_point_requires_a_baseline(self):
        for call in self.entry_points():
            with pytest.raises(ValueError, match="need unrouted baseline blocks"):
                call(np.array([]))

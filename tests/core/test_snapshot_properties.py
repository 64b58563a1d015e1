"""Property tests: snapshot -> flowpack -> mmap -> query parity.

The contract under test is that persisting a snapshot and memory-mapping
it back changes *nothing*: every column is bit-identical and every point
query answers exactly as the in-memory snapshot — which itself answers
exactly as the batch :meth:`MetaTelescope.infer` that produced it.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.snapshot import (
    VERDICT_DARK,
    ClassificationSnapshot,
    build_snapshot,
)


@st.composite
def verdict_sets(draw):
    """Random disjoint dark/unclean/gray/candidate sets plus a history."""
    pool = draw(
        st.lists(
            st.integers(min_value=0, max_value=2**24 - 1),
            min_size=0,
            max_size=60,
            unique=True,
        )
    )
    rng = np.random.default_rng(
        draw(st.integers(min_value=0, max_value=2**31))
    )
    blocks = np.array(sorted(pool), dtype=np.int64)
    labels = rng.integers(0, 4, size=len(blocks))
    sets = {
        name: blocks[labels == code]
        for code, name in enumerate(("dark", "unclean", "gray", "candidate"))
    }
    day = draw(st.integers(min_value=0, max_value=30))
    history = []
    for past in range(draw(st.integers(min_value=0, max_value=4))):
        keep = rng.random(len(blocks)) < 0.6
        history.append((day - past, blocks[keep]))
    return day, sets, history


def round_trip(snapshot: ClassificationSnapshot) -> ClassificationSnapshot:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "snapshot.fpk"
        snapshot.save(path)
        reopened = ClassificationSnapshot.open(path)
        # Force materialisation while the mmap is alive.
        return reopened


@settings(max_examples=60, deadline=None)
@given(verdict_sets())
def test_flowpack_round_trip_is_bit_identical(drawn):
    day, sets, history = drawn
    snapshot = build_snapshot(
        day,
        dark=sets["dark"],
        unclean=sets["unclean"],
        gray=sets["gray"],
        candidate=sets["candidate"],
        history=history,
        provenance={"engine": "property-test"},
    )
    back = round_trip(snapshot)
    np.testing.assert_array_equal(back.blocks, snapshot.blocks)
    np.testing.assert_array_equal(back.verdicts, snapshot.verdicts)
    np.testing.assert_array_equal(back.confidence, snapshot.confidence)
    np.testing.assert_array_equal(back.since_day, snapshot.since_day)
    np.testing.assert_array_equal(back.asns, snapshot.asns)
    np.testing.assert_array_equal(back.countries, snapshot.countries)
    assert back.day == snapshot.day
    assert back.provenance == snapshot.provenance


@settings(max_examples=40, deadline=None)
@given(verdict_sets(), st.lists(st.integers(0, 2**24 - 1), max_size=20))
def test_point_queries_survive_round_trip(drawn, probes):
    day, sets, history = drawn
    snapshot = build_snapshot(
        day,
        dark=sets["dark"],
        unclean=sets["unclean"],
        gray=sets["gray"],
        candidate=sets["candidate"],
        history=history,
    )
    back = round_trip(snapshot)
    targets = list(probes) + [int(b) for b in snapshot.blocks[:10]]
    for block in targets:
        assert back.lookup(block).to_dict() == snapshot.lookup(block).to_dict()
    probe_arr = np.asarray(targets or [0], dtype=np.int64)
    np.testing.assert_array_equal(
        back.indices_of(probe_arr), snapshot.indices_of(probe_arr)
    )


def test_empty_snapshot_round_trip():
    back = round_trip(build_snapshot(0, np.empty(0, dtype=np.int64)))
    assert len(back) == 0
    assert back.lookup(123).verdict == 0


def test_single_block_snapshot_round_trip():
    snapshot = build_snapshot(3, dark=np.array([77], dtype=np.int64))
    back = round_trip(snapshot)
    assert back.lookup(77).dark
    assert not back.lookup(76).dark
    np.testing.assert_array_equal(back.dark_blocks, [77])


def test_infer_snapshot_matches_batch_infer(world, day0):
    """The frozen snapshot serves exactly what batch inference decided."""
    from repro.core.metatelescope import MetaTelescope
    from repro.core.pipeline import PipelineConfig

    telescope = MetaTelescope(
        collector=world.collector,
        liveness=world.datasets.liveness,
        unrouted_baseline=world.unrouted_baseline_blocks,
        config=PipelineConfig(
            avg_size_threshold=world.config.avg_size_threshold,
            volume_threshold_pkts_day=world.config.volume_threshold_pkts_day,
        ),
    )
    views = list(day0.ixp_views.values())
    result = telescope.infer(views)
    snapshot = telescope.infer_snapshot(views)
    np.testing.assert_array_equal(
        snapshot.dark_blocks, np.sort(result.prefixes)
    )
    back = round_trip(snapshot)
    for block in snapshot.blocks:
        answer = back.lookup(int(block))
        assert (answer.verdict == VERDICT_DARK) == (
            block in set(result.prefixes.tolist())
        )

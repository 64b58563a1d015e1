"""The immutable classification snapshot: build, query, persist."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.snapshot import (
    NO_ASN,
    VERDICT_CANDIDATE,
    VERDICT_DARK,
    VERDICT_GRAY,
    VERDICT_UNCLEAN,
    VERDICT_UNKNOWN,
    ClassificationSnapshot,
    build_snapshot,
    empty_snapshot,
)
from repro.flowpack import write_table_archive
from repro.net.ipv4 import Prefix


def blocks(*values):
    return np.asarray(values, dtype=np.int64)


@pytest.fixture()
def snapshot():
    return build_snapshot(
        day=5,
        dark=blocks(10, 11, 12, 40),
        unclean=blocks(20),
        gray=blocks(21, 22),
        candidate=blocks(30),
        history=[
            (3, blocks(10, 11, 30)),
            (4, blocks(10, 11, 12, 30)),
            (5, blocks(10, 12, 30, 40)),
        ],
        provenance={"engine": "test"},
    )


def test_verdict_assignment_and_counts(snapshot):
    assert snapshot.verdict_counts() == {
        "dark": 4,
        "unclean": 1,
        "gray": 2,
        "candidate": 1,
    }
    assert snapshot.lookup(20).verdict == VERDICT_UNCLEAN
    assert snapshot.lookup(21).verdict == VERDICT_GRAY
    assert snapshot.lookup(30).verdict == VERDICT_CANDIDATE
    assert snapshot.lookup(40).verdict == VERDICT_DARK


def test_dark_wins_on_overlap():
    snap = build_snapshot(
        day=0, dark=blocks(7), gray=blocks(7), unclean=blocks(7)
    )
    assert snap.lookup(7).verdict == VERDICT_DARK


def test_streak_confidence_and_since_day(snapshot):
    # 10: present on days 3..5 -> streak 3, since day 3.
    ten = snapshot.lookup(10)
    assert ten.since_day == 3
    assert ten.confidence == pytest.approx(3 / 4)
    # 12: present 4..5 -> streak 2, since day 4.
    twelve = snapshot.lookup(12)
    assert twelve.since_day == 4
    assert twelve.confidence == pytest.approx(2 / 3)
    # 40: only today -> streak 1, since day 5.
    forty = snapshot.lookup(40)
    assert forty.since_day == 5
    assert forty.confidence == pytest.approx(1 / 2)
    # 11: in history days 3..4 but NOT today -> streak restarts at 1.
    eleven = snapshot.lookup(11)
    assert eleven.since_day == 5
    assert eleven.confidence == pytest.approx(1 / 2)
    # Candidate blocks score like dark ones; observed verdicts are 1.0.
    assert snapshot.lookup(30).confidence == pytest.approx(3 / 4)
    assert snapshot.lookup(20).confidence == 1.0
    assert snapshot.lookup(21).confidence == 1.0


def test_lookup_absent_is_unknown(snapshot):
    missing = snapshot.lookup(9999)
    assert missing.verdict == VERDICT_UNKNOWN
    assert not missing.dark
    assert missing.confidence == 0.0
    assert missing.to_dict()["since_day"] is None
    assert missing.to_dict()["asn"] is None


def test_is_dark_matches_naive_membership(snapshot):
    probes = np.arange(0, 60, dtype=np.int64)
    expect = np.isin(probes, snapshot.dark_blocks)
    got = [snapshot.lookup(int(probe)).dark for probe in probes]
    np.testing.assert_array_equal(got, expect)
    rows = snapshot.indices_of(probes)
    np.testing.assert_array_equal(rows >= 0, np.isin(probes, snapshot.blocks))


def test_range_and_within_prefix(snapshot):
    sub = snapshot.range(10, 21)  # inclusive on both ends
    np.testing.assert_array_equal(sub.blocks, blocks(10, 11, 12, 20, 21))
    # A /24 prefix covers exactly one block.
    first = Prefix.parse("0.0.10.0/24").first_block()
    one = snapshot.range(first, first)
    np.testing.assert_array_equal(one.blocks, blocks(10))
    assert len(snapshot.head(3)) == 3
    assert len(snapshot.head(10_000)) == len(snapshot)


def test_immutability(snapshot):
    with pytest.raises(ValueError):
        snapshot.blocks[0] = 99
    with pytest.raises(Exception):
        snapshot.day = 7  # frozen dataclass


def test_blocks_must_be_sorted_unique():
    with pytest.raises(ValueError):
        ClassificationSnapshot(
            day=0,
            blocks=blocks(5, 4),
            verdicts=np.array([1, 1], dtype=np.uint8),
            confidence=np.ones(2),
            since_day=np.zeros(2, dtype=np.int32),
            asns=np.full(2, NO_ASN, dtype=np.int32),
            countries=np.full(2, b"??", dtype="S2"),
            provenance={},
        )


def test_diff(snapshot):
    newer = build_snapshot(
        day=6,
        dark=blocks(10, 12, 50),  # 40 gone, 50 new
        unclean=blocks(20),
        gray=blocks(21, 22),
        candidate=blocks(11),  # 11 changed candidate<-dark? was dark day 5
        history=[(6, blocks(10, 12, 50))],
    )
    diff = newer.diff(snapshot)
    np.testing.assert_array_equal(diff.added_dark, blocks(50))
    np.testing.assert_array_equal(np.sort(diff.removed_dark), blocks(11, 40))
    assert not diff.is_empty()
    d = diff.to_dict()
    assert d["added_dark"] == ["0.0.50.0/24"]


def test_save_open_round_trip(snapshot, tmp_path):
    path = tmp_path / "snapshot.fpk"
    snapshot.save(path)
    back = ClassificationSnapshot.open(path)
    np.testing.assert_array_equal(back.blocks, snapshot.blocks)
    np.testing.assert_array_equal(back.verdicts, snapshot.verdicts)
    np.testing.assert_array_equal(back.confidence, snapshot.confidence)
    np.testing.assert_array_equal(back.since_day, snapshot.since_day)
    np.testing.assert_array_equal(back.asns, snapshot.asns)
    np.testing.assert_array_equal(back.countries, snapshot.countries)
    assert back.day == snapshot.day
    assert back.provenance == snapshot.provenance


def test_open_rejects_foreign_archive(tmp_path):
    path = tmp_path / "other.fpk"
    write_table_archive(
        {"x": np.arange(3, dtype=np.int64)}, path, meta={"kind": "other"}
    )
    with pytest.raises(ValueError):
        ClassificationSnapshot.open(path)


def test_empty_snapshot_round_trip(tmp_path):
    snap = empty_snapshot(day=2)
    assert len(snap) == 0
    assert snap.verdict_counts() == {}
    assert (snap.indices_of(blocks(1, 2, 3)) == -1).all()
    path = tmp_path / "empty.fpk"
    snap.save(path)
    back = ClassificationSnapshot.open(path)
    assert len(back) == 0 and back.day == 2


def test_enrich(world):
    snap = build_snapshot(day=0, dark=world.unrouted_baseline_blocks[:8])
    rich = snap.enrich(world.datasets.pfx2as, world.datasets.geodb)
    assert len(rich) == len(snap)
    # Enrichment never mutates the original.
    assert (snap.asns == NO_ASN).all()

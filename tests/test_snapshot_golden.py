"""Golden ``snapshot.fpk`` files: the published snapshot pinned by bytes.

``tests/fixtures/snapshot/`` holds two snapshots of the same 24 rows
written from fixed arrays:

* ``unenriched.fpk`` — verdicts, confidence and since-day filled, the
  AS column all ``NO_ASN`` and the country column all ``"??"`` (what
  the engines build);
* ``enriched.fpk`` — the same rows with the AS and country columns
  pinned here as literals (what a publish stores and serves).

Three claims are checked against them:

(a) today's writer reproduces both files byte for byte from the same
    arrays, so a writer change cannot slip through a round trip;
(b) today's reader decodes both to pinned rows, stored CRC-32s,
    verdict totals, day, version, family and provenance;
(c) :meth:`ClassificationSnapshot.enrich` of the unenriched file with
    the hand-built datasets below reproduces the enriched file's bytes,
    so an enrichment change cannot move an origin AS or a country.

The prefix-to-AS map nests prefixes five deep, announces one prefix
from two origins (the smaller wins) and one from the same origin twice,
and carries prefixes longer than a /24 (ignored).  The geolocation
database misses some of the rows (``"??"``) and knows blocks that are
not rows.

Only a deliberate format or enrichment change rewrites these files,
with::

    PYTHONPATH=src python tests/test_snapshot_golden.py

The arrays come from a fixed 64-bit LCG in pure Python, not a numpy
random stream, so a numpy upgrade cannot change them.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.bgp.rib import Announcement, RoutingTable
from repro.core.snapshot import (
    NO_ASN,
    NO_COUNTRY,
    SNAPSHOT_COLUMNS,
    ClassificationSnapshot,
)
from repro.datasets.geodb import GeoDatabase
from repro.datasets.pfx2as import PrefixToAsMap
from repro.flowpack import TableArchive
from repro.net.family import FAMILY_IPV4
from repro.net.ipv4 import Prefix

FIXTURES = Path(__file__).parent / "fixtures" / "snapshot"

#: 10.0.0.0/24 as a block id: 18 rows live in 10.0.0.0/13.
BASE_BLOCK = 10 << 16


def _draws(seed: int, rows: int, bound: int) -> list[int]:
    """``rows`` integers in ``[0, bound)`` from a 64-bit LCG (Knuth's
    MMIX constants)."""
    state, out = seed, []
    for _ in range(rows):
        state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
        out.append((state >> 11) % bound)
    return out


def _blocks() -> list[int]:
    """24 sorted-unique block ids: 18 inside 10.0.0.0/13, six anywhere
    on the /24 axis."""
    near = {BASE_BLOCK + value for value in _draws(101, 18, 2048)}
    far = set(_draws(102, 6, 2**24))
    return sorted(near | far)


def _unenriched() -> ClassificationSnapshot:
    blocks = _blocks()
    rows = len(blocks)
    return ClassificationSnapshot(
        day=5,
        blocks=np.array(blocks, dtype=np.int64),
        verdicts=np.array([1 + v for v in _draws(103, rows, 4)], dtype=np.uint8),
        confidence=np.array(_draws(104, rows, 2**20), dtype=np.float64) / 2**20,
        since_day=np.array(_draws(105, rows, 6), dtype=np.int32),
        asns=np.full(rows, NO_ASN, dtype=np.int32),
        countries=np.full(rows, NO_COUNTRY, dtype="S2"),
        provenance={
            "world_seed": 7,
            "plan": {"days": 1, "workers": 1, "kernel": "numpy"},
            "health": {"quarantined": [], "feeds": 14},
        },
        version=3,
        family=FAMILY_IPV4,
    )


def _pfx2as() -> PrefixToAsMap:
    """Nested, duplicate-origin and longer-than-/24 announcements."""
    announced = [
        ("10.0.0.0/8", 100),
        ("10.0.0.0/14", 220),
        ("10.0.0.0/14", 210),  # two origins: the smaller wins
        ("10.1.0.0/16", 300),
        ("10.1.0.0/16", 300),  # one origin twice
        ("10.1.128.0/17", 350),
        ("10.1.144.0/24", 360),  # five deep: /8 > /14 > /16 > /17 > /24
        ("10.3.0.0/18", 400),
        ("10.3.117.0/25", 700),  # longer than a /24: ignored
        ("10.5.0.0/16", 500),
        ("10.5.64.0/23", 520),
        ("10.5.65.0/24", 530),
        ("10.5.65.0/24", 510),
        ("25.75.28.0/26", 800),  # ignored, and nothing shorter covers
        ("183.0.0.0/8", 900),
        ("192.0.0.0/2", 64),
        ("213.40.0.0/16", 950),
    ]
    return PrefixToAsMap.from_routing_table(
        RoutingTable(
            Announcement(Prefix.parse(text), asn) for text, asn in announced
        )
    )


def _geodb() -> GeoDatabase:
    """Every other row located, plus blocks that are not rows."""
    codes = ["US", "DE", "NL", "BR", "JP", "ZA"]
    located = _blocks()[::2] + [BASE_BLOCK + 1023, 2**24 - 1]
    picks = _draws(106, len(located), len(codes))
    return GeoDatabase(
        blocks=np.array(located[::-1], dtype=np.int64),
        country_codes=np.array([codes[pick] for pick in picks[::-1]]),
    )


#: The enriched columns, in row order, pinned as literals.
ENRICHED_ASNS = [
    210, 210, 300, 360, 350, 210, 400, 210, 210, 100, 100, 100,
    100, 500, 510, 100, 100, 100, NO_ASN, NO_ASN, 900, NO_ASN, 64, 950,
]
ENRICHED_COUNTRIES = [
    b"DE", b"??", b"DE", b"??", b"JP", b"??", b"DE", b"??", b"JP", b"??",
    b"ZA", b"??", b"US", b"??", b"NL", b"??", b"ZA", b"??", b"NL", b"??",
    b"BR", b"??", b"JP", b"??",
]


def _enriched() -> ClassificationSnapshot:
    snapshot = _unenriched()
    return ClassificationSnapshot(
        **{
            **{name: getattr(snapshot, name) for name in SNAPSHOT_COLUMNS},
            "asns": np.array(ENRICHED_ASNS, dtype=np.int32),
            "countries": np.array(ENRICHED_COUNTRIES, dtype="S2"),
        },
        day=snapshot.day,
        provenance=snapshot.provenance,
        version=snapshot.version,
        family=snapshot.family,
    )


#: Fixture name -> the snapshot it holds.
SNAPSHOTS = {"unenriched.fpk": _unenriched, "enriched.fpk": _enriched}

#: Verdict totals of the 24 rows (both fixtures).
VERDICTS = {"dark": 4, "unclean": 6, "gray": 5, "candidate": 9}

#: What the reader must decode from each fixture: the stored CRC-32 of
#: each column (schema order) and the AS and country columns.
EXPECTED = {
    "unenriched.fpk": {
        "checksums": [0xFA266B8D, 0x792FB825, 0xE0A56E67, 0x6552CEB1,
                      0x46D91CD0, 0xA45D4CEC],
        "asns": [NO_ASN] * 24,
        "countries": [NO_COUNTRY] * 24,
    },
    "enriched.fpk": {
        "checksums": [0xFA266B8D, 0x792FB825, 0xE0A56E67, 0x6552CEB1,
                      0x172C8ACE, 0xC23B3427],
        "asns": ENRICHED_ASNS,
        "countries": ENRICHED_COUNTRIES,
    },
}


@pytest.mark.parametrize("name", sorted(SNAPSHOTS))
def test_writer_reproduces_fixture_bytes(tmp_path, name):
    path = tmp_path / name
    SNAPSHOTS[name]().save(path)
    assert path.read_bytes() == (FIXTURES / name).read_bytes()


@pytest.mark.parametrize("name", sorted(SNAPSHOTS))
def test_reader_decodes_fixture(name):
    expected = EXPECTED[name]
    path = FIXTURES / name
    archive = TableArchive(path, expected_columns=SNAPSHOT_COLUMNS)
    assert [segment.rows for segment in archive.segments] == [24]
    assert [list(segment.checksums) for segment in archive.segments] == [
        expected["checksums"]
    ]
    snapshot = ClassificationSnapshot.open(path)
    assert len(snapshot) == 24
    assert snapshot.blocks.tolist() == _blocks()
    assert (snapshot.day, snapshot.version, snapshot.family) == (
        5, 3, FAMILY_IPV4
    )
    assert dict(snapshot.provenance) == _unenriched().provenance
    assert snapshot.verdict_counts() == VERDICTS
    assert snapshot.asns.tolist() == expected["asns"]
    assert snapshot.countries.tolist() == expected["countries"]


def test_enrich_reproduces_enriched_bytes(tmp_path):
    unenriched = ClassificationSnapshot.open(FIXTURES / "unenriched.fpk")
    path = tmp_path / "enriched.fpk"
    unenriched.enrich(pfx2as=_pfx2as(), geodb=_geodb()).save(path)
    assert path.read_bytes() == (FIXTURES / "enriched.fpk").read_bytes()


def test_fixtures_stay_small():
    sizes = {path.name: path.stat().st_size for path in FIXTURES.glob("*.fpk")}
    assert sorted(sizes) == sorted(SNAPSHOTS)
    assert sum(sizes.values()) < 4096


if __name__ == "__main__":
    FIXTURES.mkdir(parents=True, exist_ok=True)
    for fixture, build in SNAPSHOTS.items():
        build().save(FIXTURES / fixture)
        print(FIXTURES / fixture, (FIXTURES / fixture).stat().st_size)

"""Golden daily routing tables: the RIB feed pinned by text.

``tests/fixtures/rib/micro_v4_daily.txt`` holds
:meth:`~repro.bgp.rib.RouteViewsCollector.daily_table` of the micro
IPv4 world (``micro_world(7)``) for days 0-6: one ``# day N`` line per
day, then one ``prefix origin stable`` line per announcement in the
table's own order (``stable`` is 1 or 0).

The order is part of what is pinned: a table keeps the order in which
its announcements first appear across the day's twelve dumps, and a
flapping more-specific missing from the early dumps comes late.  This
is a check that does not depend on how the union is computed, so a
new presence rule or union cannot slip through a comparison with
itself.

Only a deliberate change to the RIB model rewrites the file, with::

    PYTHONPATH=src python tests/test_rib_golden.py
"""

from __future__ import annotations

from pathlib import Path

from repro.world.scenarios import micro_world

FIXTURE = Path(__file__).parent / "fixtures" / "rib" / "micro_v4_daily.txt"
SEED = 7
DAYS = range(7)


def daily_tables_text() -> str:
    collector = micro_world(SEED).collector
    lines = []
    for day in DAYS:
        lines.append(f"# day {day}")
        lines.extend(
            f"{a.prefix} {a.origin_asn} {int(a.stable)}"
            for a in collector.daily_table(day).announcements
        )
    return "\n".join(lines) + "\n"


def test_daily_tables_reproduce_the_fixture_byte_for_byte():
    assert daily_tables_text().encode() == FIXTURE.read_bytes()


def test_fixture_holds_flapping_announcements_in_every_day():
    # A fixture of stable announcements alone would pin no presence draw.
    days = FIXTURE.read_text().split("# day ")[1:]
    assert [int(day.split("\n", 1)[0]) for day in days] == list(DAYS)
    for day in days:
        rows = [line.split() for line in day.strip().split("\n")[1:]]
        assert any(stable == "0" for _, _, stable in rows)
        assert any(stable == "1" for _, _, stable in rows)


if __name__ == "__main__":
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(daily_tables_text())
    print(FIXTURE, FIXTURE.stat().st_size)

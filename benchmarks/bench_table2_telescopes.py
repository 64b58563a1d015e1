"""Table 2 — operational telescope basic statistics.

Paper shape: every telescope's per-/24 daily packet count is of the
same order (~2 M real, ~intensity-scaled here); TCP dominates (79-94 %),
TEU2 is the most UDP-heavy and busiest per /24; the average TCP packet
size sits just above 40 bytes everywhere; TEU1's totals are depressed by
its blocked ports (23/445).
"""

from __future__ import annotations

from _common import emit
from repro.reporting.tables import format_table
from repro.traffic.packets import PROTO_TCP


def test_table2_telescope_stats(study, benchmark):
    def collect():
        rows = []
        num_days = study.world.config.num_days
        for code, telescope in study.world.telescopes.items():
            daily = [
                telescope.daily_stats(
                    study.observatory.day(day).telescope_views[code]
                )
                for day in range(num_days)
            ]
            rows.append(
                (
                    code,
                    telescope.size(),
                    sum(s.packets_per_block for s in daily) / num_days,
                    100.0 * sum(s.tcp_share for s in daily) / num_days,
                    sum(s.avg_tcp_packet_size for s in daily) / num_days,
                )
            )
        return rows

    rows = benchmark.pedantic(collect, rounds=1, iterations=1)
    emit(
        "table2_telescopes",
        format_table(
            ["Code", "Size (#/24s)", "Daily /24 pkts", "TCP share %", "Avg TCP size (B)"],
            rows,
            title="Table 2 — operational telescopes (simulation scale)",
        ),
    )
    by_code = {row[0]: row for row in rows}
    # TCP dominates everywhere; TEU1 (blocked ports) is less busy per
    # /24 than TUS1; TEU2 is the most UDP-heavy and busiest per /24
    # (the April-24 reflection event); TCP size just above 40 B.
    assert all(row[3] > 60.0 for row in rows)
    assert by_code["TEU1"][2] < by_code["TUS1"][2]
    assert by_code["TEU2"][3] == min(row[3] for row in rows)
    assert by_code["TEU2"][2] == max(row[2] for row in rows)
    for row in rows:
        assert 40.0 < row[4] < 42.5

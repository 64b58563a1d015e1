#!/usr/bin/env python3
"""Threat intelligence from a continuously operated meta-telescope.

Combines the Section 9 operational loop (daily re-inference with a
rolling window and stability tracking) with the threat analyses the
paper motivates: scanner characterisation with campaign fingerprints,
and DDoS-victim inference from backscatter — the insights an operator
would share with CERTs.

Run:  python examples/threat_intelligence.py
"""

from __future__ import annotations

from repro.analysis.backscatter_analysis import detect_victims
from repro.analysis.scanners_analysis import campaign_summary, detect_scanners
from repro.core import MetaTelescope
from repro.core.online import OnlineMetaTelescope
from repro.net.ipv4 import format_ip
from repro.reporting.tables import format_table
from repro.world.scenarios import small_observatory, small_world


def main() -> None:
    world = small_world()
    observatory = small_observatory()
    telescope = MetaTelescope.for_world(world)

    # -- the operational loop: one inference per day -----------------------
    online = OnlineMetaTelescope(
        telescope=telescope, window_days=4, min_stable_days=2
    )
    print("daily operation (rolling 4-day window, 2-day stability):")
    rows = []
    for day in range(world.config.num_days):
        views = list(observatory.day(day).ixp_views.values())
        update = online.update(day, views)
        rows.append(
            (day, update.serving_size, len(update.added_blocks),
             len(update.removed_blocks))
        )
    print(format_table(["day", "serving /24s", "added", "removed"], rows))

    # -- data product (b): traffic toward the serving list ----------------
    week_views = observatory.all_ixp_views(num_days=world.config.num_days)
    captured = telescope.captured_traffic(week_views, online.current_prefixes())
    print(
        f"\ncaptured {captured.total_packets():,} sampled packets toward "
        f"{len(online.current_prefixes()):,} serving prefixes"
    )

    # -- scanner characterisation ------------------------------------------
    scanners = detect_scanners(captured, min_footprint_blocks=5)
    print(f"\n{len(scanners)} scanning sources characterised; campaigns:")
    for family, count in campaign_summary(scanners).items():
        print(f"  {family:<18} {count}")
    print("\nwidest-footprint scanners:")
    rows = [
        (
            format_ip(report.source_ip),
            f"AS{report.sender_asn}",
            report.footprint_blocks,
            ",".join(map(str, report.ports[:4])),
        )
        for report in scanners[:8]
    ]
    print(format_table(["source", "ASN", "#/24s probed", "ports"], rows))

    # -- DDoS victims from backscatter ------------------------------------
    analysis = detect_victims(captured, min_spread_blocks=2, min_packets=2)
    print(
        f"\nbackscatter: {analysis.backscatter_share():.1%} of captured "
        f"packets; {len(analysis.victims)} inferred attack victims"
    )
    for victim in analysis.victims[:5]:
        print(
            f"  {format_ip(victim.victim_ip)}: replies reached "
            f"{victim.spread_blocks} dark /24s "
            f"({victim.packets} sampled packets)"
        )


if __name__ == "__main__":
    main()

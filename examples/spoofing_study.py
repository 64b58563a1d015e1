#!/usr/bin/env python3
"""Operating a meta-telescope under spoofing (paper Section 7).

Reproduces the operational experience of Sections 7.1-7.2 on the small
world: per-day variability, the collapse of cumulative-day inference
under spoofed pollution, the unrouted-space tolerance that rescues it,
and the stability recommendation (trust prefixes seen on several days).

Run:  python examples/spoofing_study.py
"""

from __future__ import annotations

from repro.analysis.variability import daily_series
from repro.core import MetaTelescope
from repro.net.blocksets import sorted_in_at_least
from repro.reporting.tables import format_table
from repro.world.scenarios import small_observatory, small_world


def main() -> None:
    world = small_world()
    observatory = small_observatory()
    week = world.config.num_days
    telescope = MetaTelescope.for_world(world)
    views_by_day = {
        day: list(observatory.day(day).ixp_views.values()) for day in range(week)
    }

    # -- Figure 8: day-to-day variability -------------------------------
    series = daily_series("All", views_by_day, telescope,
                          use_spoofing_tolerance=True)
    print("independent per-day inference (days 5-6 are the weekend):")
    print(format_table(["day", "#prefixes"], list(zip(series.days, series.counts))))
    print(f"weekend uplift: {series.weekend_uplift():.2f}x\n")

    # -- Figure 9: cumulative windows ±tolerance --------------------------
    rows = []
    pooled = []
    for day in range(week):
        pooled = pooled + views_by_day[day]
        plain = telescope.infer(pooled, refine=False)
        tolerant = telescope.infer(
            pooled, use_spoofing_tolerance=True, refine=False
        )
        rows.append((day + 1, plain.pipeline.num_dark(),
                     tolerant.pipeline.num_dark()))
    print("cumulative windows: spoofing destroys, the tolerance recovers:")
    print(format_table(["days", "no tolerance", "with tolerance"], rows))

    # The tolerance itself, per vantage (the paper's 0-4 pkts/day).
    tolerances = tolerant.pipeline.applied_tolerances
    biggest = sorted(tolerances.items(), key=lambda item: -item[1])[:5]
    print("\n7-day window tolerances (top 5 vantages):", biggest)

    # -- Section 7.1: stability recommendation ---------------------------
    daily = [
        telescope.infer(views, refine=False).pipeline.dark_blocks
        for views in views_by_day.values()
    ]
    for min_days in (1, 3, 5):
        stable = sorted_in_at_least(daily, min_days)
        print(
            f"prefixes inferred dark on >= {min_days} of {week} days: "
            f"{len(stable):,}"
        )


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Scanning insights by region and network type (paper Section 8).

Uses the inferred meta-telescope to answer the questions a single
conventional telescope cannot: *where* is a port being hunted, and in
*what kind* of networks?  Prints the bean-plot data of Figures 11/12
and highlights the regional campaigns (Satori in Africa, the Redis
campaign's footprint).

Run:  python examples/scanning_insights.py
"""

from __future__ import annotations

from repro.analysis.ports import (
    bean_matrix,
    port_activity_by_group,
    top_ports_per_group,
)
from repro.core import MetaTelescope
from repro.reporting.beanplot import render_bean_rows
from repro.world.scenarios import small_observatory, small_world


def main() -> None:
    world = small_world()
    observatory = small_observatory()
    telescope = MetaTelescope.for_world(world)
    week = world.config.num_days
    views = observatory.all_ixp_views(num_days=week)
    result = telescope.infer(views, use_spoofing_tolerance=True)
    captured = telescope.captured_traffic(views, result)
    print(
        f"meta-telescope: {result.num_prefixes():,} /24s; captured "
        f"{captured.total_packets():,} sampled packets toward them\n"
    )

    # -- by destination region (Figure 11) ------------------------------
    continents = world.index.continents_of(captured.dst_blocks())
    by_region = port_activity_by_group(
        captured,
        {
            int(block): str(cont)
            for block, cont in zip(captured.dst_blocks(), continents)
            if cont != "??"
        },
    )
    ports = top_ports_per_group(by_region, per_group=8)[:12]
    groups, matrix = bean_matrix(by_region, ports)
    print("top ports per destination region (share within region):")
    print(render_bean_rows(ports, groups, matrix))

    if "AF" in by_region:
        satori_af = by_region["AF"].share_of(37215)
        satori_eu = by_region.get("EU")
        print(
            f"\nSatori (port 37215): {satori_af:.1%} of traffic toward Africa"
            + (
                f" vs {satori_eu.share_of(37215):.1%} toward Europe"
                if satori_eu
                else ""
            )
        )

    # -- by destination network type (Figure 12) -------------------------
    types = world.index.as_types_of(captured.dst_blocks())
    by_type = port_activity_by_group(
        captured,
        {
            int(block): t.value
            for block, t in zip(captured.dst_blocks(), types)
            if t is not None
        },
    )
    ports = top_ports_per_group(by_type, per_group=8)[:12]
    groups, matrix = bean_matrix(by_type, ports)
    print("\ntop ports per destination network type:")
    print(render_bean_rows(ports, groups, matrix))

    if "Data Center" in by_type and "ISP" in by_type:
        print(
            f"\nunprotected-web hunting: port 80 is "
            f"{by_type['Data Center'].share_of(80):.1%} of data-center traffic "
            f"vs {by_type['ISP'].share_of(80):.1%} of ISP traffic"
        )


if __name__ == "__main__":
    main()

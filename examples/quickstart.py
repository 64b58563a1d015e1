#!/usr/bin/env python3
"""Quickstart: build a synthetic Internet and infer meta-telescope prefixes.

This walks the full loop of the paper in a couple of minutes at the
small scale:

1. generate a world (address plan, ASes, routing, traffic actors);
2. observe one day of traffic at 14 IXP vantage points;
3. run the seven-step inference pipeline with the spoofing tolerance;
4. refine with the public liveness datasets;
5. evaluate against the simulator's ground truth.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.core import MetaTelescope
from repro.core.evaluation import confusion_against_truth, telescope_coverage
from repro.reporting.tables import format_table
from repro.world.scenarios import small_observatory, small_world


def main() -> None:
    print("building the synthetic Internet (small scale)...")
    world = small_world()
    observatory = small_observatory()
    print(
        f"  {len(world.index):,} announced /24s, {len(world.registry)} ASes, "
        f"{len(world.fabric.ixps)} IXPs, 3 operational telescopes"
    )

    print("observing day 0 at every IXP...")
    views = observatory.all_ixp_views(num_days=1)
    total_flows = sum(len(view.flows) for view in views)
    print(f"  {total_flows:,} sampled flows exported")

    telescope = MetaTelescope.for_world(world)
    result = telescope.infer(views, use_spoofing_tolerance=True)

    print("\npipeline funnel (Figure 2):")
    print(format_table(["step", "#/24s"], result.pipeline.funnel.as_rows()))

    print(
        f"\nclassification: {len(result.pipeline.dark_blocks):,} dark, "
        f"{len(result.pipeline.unclean_blocks):,} unclean, "
        f"{len(result.pipeline.gray_blocks):,} gray"
    )
    print(
        f"liveness refinement removed "
        f"{len(result.refinement.removed_blocks):,} blocks "
        f"({result.refinement.removed_fraction():.1%})"
    )
    print(f"final meta-telescope: {result.num_prefixes():,} /24 prefixes")

    confusion = confusion_against_truth(result.prefixes, world.index)
    print(
        f"\nground truth check: {confusion.false_positive_rate_of_inferred():.2%}"
        f" of the final prefixes are actually active;"
        f" {confusion.recall():.1%} of the truly dark space recovered"
    )

    print("\ncoverage of the operational telescopes (Table 4 style):")
    rows = []
    for code, sensor in world.telescopes.items():
        row = telescope_coverage(result.prefixes, sensor, day=0)
        rows.append((code, row.telescope_size, row.inferred_inside,
                     f"{row.coverage():.0%}"))
    print(format_table(["telescope", "size", "inferred inside", "coverage"], rows))


if __name__ == "__main__":
    main()

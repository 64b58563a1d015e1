#!/usr/bin/env python3
"""Federated meta-telescopes (paper Section 9).

Three IXP operators each infer meta-telescope prefixes from their own
flow data, then share the lists: a vote among observers yields a
collectively more reliable telescope, and an opt-in marking registry
(the paper's private BGP-community/RPKI idea) lets a cooperating
operator contribute its known-unused space directly.

Run:  python examples/federated_telescope.py
"""

from __future__ import annotations

from repro.core import MetaTelescope, MarkingRegistry, OperatorReport, federate
from repro.core.evaluation import confusion_against_truth
from repro.reporting.tables import format_table
from repro.world.scenarios import small_observatory, small_world


def main() -> None:
    world = small_world()
    observatory = small_observatory()
    telescope = MetaTelescope.for_world(world)

    members = ("CE1", "NA1", "SE2")
    reports = []
    rows = []
    for code in members:
        views = observatory.ixp_views(code, num_days=1)
        accumulator = telescope.accumulate(views)
        result = telescope.infer_accumulated(
            accumulator, use_spoofing_tolerance=True
        )
        observed = accumulator.observed_blocks()
        reports.append(OperatorReport.from_result(code, result, observed))
        confusion = confusion_against_truth(result.prefixes, world.index)
        rows.append(
            (
                code,
                result.num_prefixes(),
                f"{confusion.false_positive_rate_of_inferred():.2%}",
                f"{confusion.recall():.1%}",
            )
        )

    print("individual operators:")
    print(format_table(["operator", "#prefixes", "FP share", "recall"], rows))

    # A cooperating research network tags its own unused space (the
    # TEU1 telescope host opts in for its dark blocks of the day).
    registry = MarkingRegistry()
    registry.mark(world.telescopes["TEU1"].dark_blocks_on(0), owner="TEU1-host")

    for share, label in ((0.34, "any-observer vote"), (0.66, "2-of-3 vote")):
        federated = federate(reports, registry=registry, min_vote_share=share)
        confusion = confusion_against_truth(federated.prefixes, world.index)
        print(
            f"\nfederation ({label}, + opt-in marks): "
            f"{federated.num_prefixes():,} prefixes, "
            f"FP {confusion.false_positive_rate_of_inferred():.2%}, "
            f"recall {confusion.recall():.1%} "
            f"({len(federated.marked_blocks)} from the marking registry)"
        )


if __name__ == "__main__":
    main()

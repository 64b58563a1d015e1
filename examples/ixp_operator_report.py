#!/usr/bin/env python3
"""Meta-telescope information as a service (paper Section 9).

An IXP operator runs the inference on its own flow data and produces
the two data products of Section 5:

* the list of meta-telescope prefixes it can monitor, and
* per-member reports: which members send traffic toward inferred dark
  space (likely scanners, misconfigurations or infected hosts), so the
  operator can notify them.

Run:  python examples/ixp_operator_report.py [IXP-CODE]
"""

from __future__ import annotations

import sys
from collections import Counter

import numpy as np

from repro.analysis.ports import top_ports
from repro.core import MetaTelescope
from repro.reporting.tables import format_table
from repro.world.scenarios import small_observatory, small_world


def main(ixp_code: str = "CE1") -> None:
    world = small_world()
    observatory = small_observatory()
    if ixp_code not in {ixp.code for ixp in world.fabric.ixps}:
        raise SystemExit(f"unknown IXP {ixp_code!r}")

    print(f"== meta-telescope service report for {ixp_code} ==")
    views = observatory.ixp_views(ixp_code, num_days=world.config.num_days)
    telescope = MetaTelescope.for_world(world)
    result = telescope.infer(views, use_spoofing_tolerance=True)
    print(
        f"product (a): {result.num_prefixes():,} meta-telescope /24 prefixes "
        f"inferred from {ixp_code}'s own flow data (7 days)"
    )

    captured = telescope.captured_traffic(views, result)
    print(
        f"product (b): {len(captured):,} flows / "
        f"{captured.total_packets():,} sampled packets toward them"
    )
    print("top targeted TCP ports:", top_ports(captured, count=8))

    # Per-member notifications: who sends traffic into dark space?
    print("\nmembers sending traffic toward meta-telescope prefixes:")
    sender_packets: Counter[int] = Counter()
    for asn, packets in zip(captured.sender_asn, captured.packets):
        if asn >= 0:
            sender_packets[int(asn)] += int(packets)
    rows = []
    for asn, packets in sender_packets.most_common(10):
        member = world.registry.get(asn)
        distinct_dsts = len(
            np.unique(captured.dst_blocks()[captured.sender_asn == asn])
        )
        rows.append(
            (
                f"AS{asn}",
                member.name,
                member.as_type.value,
                packets,
                distinct_dsts,
            )
        )
    print(
        format_table(
            ["ASN", "member", "type", "sampled pkts -> dark", "#/24s touched"],
            rows,
        )
    )
    print(
        "\n(these members likely host scanners, misconfigured exporters or "
        "infected machines — candidates for an opt-in notification)"
    )


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "CE1")

#!/usr/bin/env python3
"""Exporting the meta-telescope's data products (paper Section 5).

Shows the serialisation paths an operator uses in production:

* the prefix list, both as flat /24s and CIDR-aggregated for
  router/ACL consumption;
* the captured-traffic table as CSV, and as RFC 7011 IPFIX messages
  (round-tripped through the decoder to prove fidelity);
* per-prefix confidence scores annotating the export.

Run:  python examples/export_products.py [output-dir]
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro.core import MetaTelescope
from repro.core.confidence import score_prefixes
from repro.io import read_prefix_list, write_flows_csv, write_prefix_list
from repro.net.blocksets import aggregate_blocks
from repro.net.ipv4 import block_to_prefix
from repro.vantage.ipfix import decode_ipfix, encode_ipfix
from repro.world.scenarios import small_observatory, small_world


def main(output_dir: str | None = None) -> None:
    out = Path(output_dir) if output_dir else Path(tempfile.mkdtemp())
    out.mkdir(parents=True, exist_ok=True)

    world = small_world()
    observatory = small_observatory()
    telescope = MetaTelescope.for_world(world)
    views = observatory.all_ixp_views(num_days=2)
    accumulator = telescope.accumulate(views)
    result = telescope.infer_accumulated(accumulator, use_spoofing_tolerance=True)
    print(f"inferred {result.num_prefixes():,} meta-telescope /24 prefixes")

    # -- product (a): the prefix list -----------------------------------
    flat = out / "prefixes-flat.txt"
    write_prefix_list(result.prefixes, flat, comment="meta-telescope /24s")
    aggregated = out / "prefixes-aggregated.txt"
    write_prefix_list(
        result.prefixes, aggregated,
        comment="meta-telescope, CIDR aggregated", aggregate=True,
    )
    cidrs = aggregate_blocks(result.prefixes)
    print(
        f"prefix list: {len(result.prefixes):,} /24 lines -> "
        f"{len(cidrs):,} aggregated CIDRs ({flat.name}, {aggregated.name})"
    )
    assert read_prefix_list(aggregated).tolist() == sorted(
        result.prefixes.tolist()
    )

    # -- product (b): captured traffic -----------------------------------
    captured = telescope.captured_traffic(views, result)
    csv_path = out / "captured-flows.csv"
    write_flows_csv(captured, csv_path)
    messages = encode_ipfix(captured, observation_domain=7)
    ipfix_path = out / "captured-flows.ipfix"
    ipfix_path.write_bytes(b"".join(messages))
    decoded, infos = decode_ipfix(messages)
    print(
        f"captured traffic: {len(captured):,} flows -> {csv_path.name} and "
        f"{len(messages)} IPFIX messages ({sum(len(m) for m in messages):,} "
        f"bytes, {sum(i.num_records for i in infos):,} records round-tripped)"
    )
    assert decoded.total_packets() == captured.total_packets()

    # -- confidence annotations ------------------------------------------
    daily_dark = {}
    for day in (0, 1):
        day_views = [view for view in views if view.day == day]
        daily_dark[day] = telescope.infer(
            day_views, use_spoofing_tolerance=True, refine=False
        ).pipeline.dark_blocks
    scores = score_prefixes(
        result.prefixes, accumulator, daily_dark, config=telescope.config
    )
    scored_path = out / "prefixes-scored.txt"
    with open(scored_path, "w") as handle:
        handle.write("# prefix confidence observation margin recurrence\n")
        for i, block in enumerate(scores.blocks):
            handle.write(
                f"{block_to_prefix(int(block))} {scores.score[i]:.3f} "
                f"{scores.observation[i]:.3f} {scores.margin[i]:.3f} "
                f"{scores.recurrence[i]:.3f}\n"
            )
    strong = scores.above(0.8)
    print(
        f"confidence: {len(strong):,} of {len(scores.blocks):,} prefixes "
        f"score >= 0.8 ({scored_path.name})"
    )
    print(f"\nall products written to {out}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else None)

"""Ablation — the asymmetric-routing volume filter (pipeline step 6).

DESIGN.md design choice: without the volume threshold, CDN blocks that
receive torrents of bare ACKs (asymmetric return path) are
misclassified as meta-telescope prefixes; with the paper's threshold
they are filtered while ordinary dark space is untouched.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from _common import emit
from repro.reporting.tables import format_table
from repro.world.ground_truth import BlockState


def test_ablation_volume_filter(study, benchmark):
    world = study.world
    views = study.views("All", days=1)
    cdn_blocks = world.index.blocks_in_state(BlockState.CDN_SINK)
    thresholds = (
        world.config.volume_threshold_pkts_day / 30,
        world.config.volume_threshold_pkts_day,
        1e12,  # filter disabled
    )

    def sweep():
        rows = []
        for threshold in thresholds:
            telescope = dataclasses.replace(
                study.telescope,
                config=dataclasses.replace(
                    study.telescope.config, volume_threshold_pkts_day=threshold
                ),
            )
            result = telescope.infer(views, refine=False).pipeline
            cdn_dark = int(np.isin(cdn_blocks, result.dark_blocks).sum())
            rows.append(
                (
                    threshold,
                    result.num_dark(),
                    cdn_dark,
                    len(result.volume_filtered_blocks),
                )
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        "ablation_volume",
        format_table(
            ["Volume threshold", "#Dark", "CDN blocks misclassified", "#Volume-filtered"],
            rows,
            title="Ablation — volume threshold (step 6)",
        ),
    )
    tight, paper, disabled = rows
    # Disabled: CDN ACK sinks leak into the meta-telescope.
    assert disabled[2] > 0
    assert disabled[3] == 0
    # The paper's threshold removes essentially all of them without
    # large collateral damage.
    assert paper[2] <= max(1, disabled[2] // 10)
    assert paper[1] > 0.9 * disabled[1] - disabled[2]
    # Far too tight: large parts of real dark space are lost.
    assert tight[1] < 0.7 * paper[1]

"""Table 3 — tuning the packet-size fingerprint on labelled ISP data.

Paper shape: the *average*-size feature at 44/46 bytes wins (F1 > 99 %,
FPR < 1.1 %); at 40 bytes the average feature collapses (FNR ~99 %)
because option-bearing SYNs push per-/24 means above 40; the *median*
feature suffers a much higher false-positive rate at 44/46 bytes
(ACK-heavy active space has a small median but a large mean).
"""

from __future__ import annotations

import numpy as np

from _common import emit
from repro.core.thresholds import (
    block_size_features,
    evaluate_thresholds,
    isp_inbound_tables,
    label_isp_blocks,
)
from repro.reporting.tables import format_table


def test_table3_threshold_tuning(study, benchmark):
    world = study.world
    isp_views = [
        study.observatory.day(day).isp_view
        for day in range(world.config.num_days)
    ]

    def tune():
        labels = label_isp_blocks(
            study.telescope.accumulate(isp_views),
            world.isp.blocks,
            world.config.active_min_week_packets,
        )
        inbound = isp_inbound_tables(isp_views, world.isp.blocks)
        features = block_size_features(inbound, labels.receiving_blocks)
        return labels, evaluate_thresholds(features, labels)

    labels, rows = benchmark.pedantic(tune, rounds=1, iterations=1)
    emit(
        "table3_thresholds",
        format_table(
            ["Feature", "Threshold", "FPR %", "FNR %", "TPR %", "TNR %", "F1 %"],
            [
                (
                    r.feature,
                    r.threshold,
                    100 * r.false_positive_rate,
                    100 * r.false_negative_rate,
                    100 * r.true_positive_rate,
                    100 * r.true_negative_rate,
                    100 * r.f1_score,
                )
                for r in rows
            ],
            title=(
                "Table 3 — dark/active fingerprint tuning "
                f"({len(labels.dark_blocks)} dark / {len(labels.active_blocks)} "
                "active labelled /24s)"
            ),
        ),
    )
    by_key = {(r.feature, r.threshold): r for r in rows}
    best = by_key[("average", 44.0)]
    # The paper's winner: average @ 44 B with high F1 and low FPR.
    assert best.f1_score > 0.97
    assert best.false_positive_rate < 0.03
    # Average @ 40 B collapses (nearly all dark space misclassified).
    assert by_key[("average", 40.0)].false_negative_rate > 0.5
    # The median feature at 44 B has a clearly higher FPR than average.
    assert (
        by_key[("median", 44.0)].false_positive_rate
        > 3 * best.false_positive_rate
    )
    # Labelled population resembles the paper's ISP (dark majority).
    assert len(labels.dark_blocks) > len(labels.active_blocks)

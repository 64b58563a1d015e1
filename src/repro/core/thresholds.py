"""Packet-size fingerprint tuning on labelled ISP data (paper Table 3).

The ISP hosting TUS1 sees both directions of its traffic, so its /24s
can be *labelled*: a subnet that receives traffic but originates less
than the activity cut over the week is dark; one originating at least
``active_min_week_packets`` is active (the conservative 10 M-packet
constraint of Section 4.1, in simulation units).  Subnets in between
are left out of the evaluation, exactly as the paper drops them.

Against those labels we evaluate the two candidate features — median
and average inbound TCP packet size per /24 — across thresholds,
producing the FPR/FNR/TPR/TNR/F1 grid of Table 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.traffic.flows import FlowTable, aggregate_sums, weighted_median
from repro.vantage.sampling import VantageDayView

if TYPE_CHECKING:
    from repro.core.accum import PrefixAccumulator


@dataclass(frozen=True, slots=True)
class IspLabels:
    """Labelled ISP /24 subnets."""

    receiving_blocks: np.ndarray
    active_blocks: np.ndarray
    dark_blocks: np.ndarray
    #: Blocks that originate traffic but below the activity cut; they
    #: are excluded from the evaluation (ambiguous).
    excluded_blocks: np.ndarray


def label_isp_blocks(
    accumulator: "PrefixAccumulator",
    isp_blocks: np.ndarray,
    active_min_week_packets: int,
) -> IspLabels:
    """Label the ISP's subnets from a week of border NetFlow.

    ``accumulator`` is the fold of the ISP's views
    (:meth:`repro.core.metatelescope.MetaTelescope.accumulate`): its
    observed blocks are what the ISP's subnets received, and its raw
    per-source-/24 packet sums, pooled over every vantage, are what
    they originated.
    """
    isp_blocks = np.unique(np.asarray(isp_blocks, dtype=np.int64))
    observed = accumulator.observed_blocks()
    receiving = observed[np.isin(observed, isp_blocks)]
    originated: dict[int, float] = {}
    for blocks, packets in accumulator.vantage_source_blocks().values():
        inside = np.isin(blocks, isp_blocks)
        for block, pkts in zip(blocks[inside].tolist(), packets[inside].tolist()):
            originated[block] = originated.get(block, 0.0) + pkts
    active = np.array(
        sorted(
            b for b, pkts in originated.items() if pkts >= active_min_week_packets
        ),
        dtype=np.int64,
    )
    weak = np.array(
        sorted(
            b for b, pkts in originated.items() if pkts < active_min_week_packets
        ),
        dtype=np.int64,
    )
    dark = np.setdiff1d(receiving, np.concatenate([active, weak]))
    return IspLabels(
        receiving_blocks=receiving,
        active_blocks=np.intersect1d(active, receiving),
        dark_blocks=dark,
        excluded_blocks=np.intersect1d(weak, receiving),
    )


@dataclass(frozen=True, slots=True)
class BlockSizeFeatures:
    """Per-/24 inbound TCP size features."""

    blocks: np.ndarray
    mean_size: np.ndarray
    median_size: np.ndarray


def block_size_features(
    inbound_tables: list[FlowTable], blocks: np.ndarray
) -> BlockSizeFeatures:
    """Mean and packet-weighted median TCP size per /24.

    The median treats each flow as ``packets`` samples of the flow's
    mean packet size — the closest recoverable statistic from flow
    records (NetFlow does not export per-packet sizes).
    """
    wanted = np.unique(np.asarray(blocks, dtype=np.int64))
    tcp = FlowTable.concat([t.tcp() for t in inbound_tables])
    tcp = tcp.toward_blocks(wanted)
    dst_blocks = tcp.dst_blocks()
    present, (pkt_sum, byte_sum) = aggregate_sums(dst_blocks, tcp.packets, tcp.bytes)
    mean_size = byte_sum / np.maximum(pkt_sum, 1)

    median_size = np.empty(len(present))
    order = np.argsort(dst_blocks, kind="stable")
    sorted_blocks = dst_blocks[order]
    flow_sizes = (tcp.bytes / np.maximum(tcp.packets, 1))[order]
    flow_weights = tcp.packets[order].astype(np.float64)
    boundaries = np.searchsorted(sorted_blocks, present)
    boundaries = np.append(boundaries, len(sorted_blocks))
    for i in range(len(present)):
        lo, hi = boundaries[i], boundaries[i + 1]
        median_size[i] = weighted_median(flow_sizes[lo:hi], flow_weights[lo:hi])
    return BlockSizeFeatures(
        blocks=present, mean_size=mean_size, median_size=median_size
    )


@dataclass(frozen=True, slots=True)
class ClassifierEvaluation:
    """One row of Table 3."""

    feature: str
    threshold: float
    false_positive_rate: float
    false_negative_rate: float
    true_positive_rate: float
    true_negative_rate: float
    f1_score: float


def evaluate_thresholds(
    features: BlockSizeFeatures,
    labels: IspLabels,
    thresholds: tuple[float, ...] = (40.0, 42.0, 44.0, 46.0),
) -> list[ClassifierEvaluation]:
    """Sweep both features across thresholds against the ISP labels.

    The positive class is "dark" (as in the paper: a true positive is
    a dark subnet classified dark; a false positive an active subnet
    classified dark).
    """
    rows = []
    eval_blocks = np.concatenate([labels.dark_blocks, labels.active_blocks])
    mask = np.isin(features.blocks, eval_blocks)
    blocks = features.blocks[mask]
    is_dark = np.isin(blocks, labels.dark_blocks)
    for feature_name, values in (
        ("median", features.median_size[mask]),
        ("average", features.mean_size[mask]),
    ):
        for threshold in thresholds:
            predicted_dark = values <= threshold
            tp = int((predicted_dark & is_dark).sum())
            fp = int((predicted_dark & ~is_dark).sum())
            fn = int((~predicted_dark & is_dark).sum())
            tn = int((~predicted_dark & ~is_dark).sum())
            rows.append(
                ClassifierEvaluation(
                    feature=feature_name,
                    threshold=threshold,
                    false_positive_rate=_ratio(fp, fp + tn),
                    false_negative_rate=_ratio(fn, fn + tp),
                    true_positive_rate=_ratio(tp, tp + fn),
                    true_negative_rate=_ratio(tn, tn + fp),
                    f1_score=_ratio(2 * tp, 2 * tp + fp + fn),
                )
            )
    return rows


def _ratio(numerator: int, denominator: int) -> float:
    return numerator / denominator if denominator else 0.0


def isp_inbound_tables(
    isp_views: list[VantageDayView], isp_blocks: np.ndarray
) -> list[FlowTable]:
    """Inbound flow tables (dst inside the ISP) per view."""
    isp_blocks = np.unique(np.asarray(isp_blocks, dtype=np.int64))
    return [view.flows.toward_blocks(isp_blocks) for view in isp_views]

"""The seven-step funnel over finalized accumulator columns.

The paper's Figure-2 funnel is one fixed sequence: six per-/24
eligibility filters, then a per-IP classification of the survivors
into dark / unclean / gray.  :func:`run_funnel` is that sequence,
written out in paper order over the finalized columns
(:class:`repro.core.accum.FinalizedAggregates`).  The per-address
evidence is folded onto the block axis first, in one kernel call
(``address_pass``, timed under step 1); every step then reads block
columns and, given a :class:`~repro.core.engine.RunContext`, emits
one ``stage`` event timing its own work — the trace is the only record
of stage timings.

The function is pure over *finalized* columns: whether those columns
came from one giant vantage-day table, from a chunk-by-chunk stream,
or from merging federation partials, classification is bit-identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.bgp.rib import RoutingTable
from repro.net.blocksets import align_sorted
from repro.net.special import SpecialPurposeRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.accum import FinalizedAggregates
    from repro.core.engine import RunContext
    from repro.core.kernels import NumpyKernel


@dataclass(frozen=True, slots=True)
class PipelineConfig:
    """Tunable thresholds of the inference pipeline.

    Defaults correspond to the paper's choices translated to simulation
    units (the volume threshold scales with the world's traffic
    intensity; 44 bytes is intensity-free).
    """

    avg_size_threshold: float = 44.0
    #: Per-IP survival slack: an address fails only above this mean size
    #: (48 B = SYN with one option; see the pipeline granularity note).
    ip_size_threshold: float = 48.0
    volume_threshold_pkts_day: float = 700.0
    #: Forgiven source packets per /24 (spoofing tolerance).  Either a
    #: per-day number, or a mapping ``vantage -> packets`` covering the
    #: whole inference window at that vantage (the paper computes the
    #: tolerance "for each vantage point and each time frame").
    spoof_tolerance: float | dict[str, float] = 0.0
    #: Sender ASes whose flows are ignored for source sightings
    #: (the BCP 38 / Spoofer-list mitigation of Section 9).
    ignore_sources_from_asns: frozenset[int] = frozenset()


@dataclass(frozen=True, slots=True)
class FunnelCounts:
    """Figure-2 funnel: /24 blocks surviving after each step."""

    observed: int
    after_tcp: int
    after_avg_size: int
    after_source_unseen: int
    after_special: int
    after_routed: int
    after_volume: int

    def as_rows(self, block_label: str = "/24 subnets") -> list[tuple[str, int]]:
        """(step name, surviving count) rows, in pipeline order.

        ``block_label`` names the block granularity in the first row
        (``"/24 subnets"`` for IPv4, ``"/48 sites"`` for IPv6).
        """
        return [
            (f"observed {block_label}", self.observed),
            ("TCP", self.after_tcp),
            ("average <= threshold bytes", self.after_avg_size),
            ("never sent a packet", self.after_source_unseen),
            ("private / reserved / multicast", self.after_special),
            ("globally routed", self.after_routed),
            ("asymmetric routing (volume)", self.after_volume),
        ]


@dataclass(frozen=True)
class PipelineResult:
    """Classification output plus diagnostics."""

    dark_blocks: np.ndarray
    unclean_blocks: np.ndarray
    gray_blocks: np.ndarray
    funnel: FunnelCounts
    #: Blocks dropped by the volume filter (step 6) among candidates.
    volume_filtered_blocks: np.ndarray
    #: Per-vantage window tolerances that were applied (packets).
    applied_tolerances: dict[str, float] = field(default_factory=dict)
    #: Address family the block ids live in.
    family: str = "ipv4"

    def num_dark(self) -> int:
        """Number of inferred meta-telescope prefixes."""
        return len(self.dark_blocks)


def run_funnel(
    finalized: "FinalizedAggregates",
    routing: RoutingTable,
    special: SpecialPurposeRegistry,
    config: PipelineConfig,
    context: "RunContext | None" = None,
    *,
    kernel: "NumpyKernel",
) -> PipelineResult:
    """Run the six filters and classify the survivors.

    With a ``context``, every step lands on its observability spine as
    one ``stage`` event (``tcp`` … ``volume``, then ``classify`` with
    the dark / unclean / gray counts in its ``meta``).  ``kernel``
    (the accumulator's) computes the address pass; every backend gives
    identical block columns.
    """
    # One kernel call folds the address table onto the block axis:
    # every per-block fact steps 1-3 and 7 read, step 3's source probe
    # included.  It builds step 1's evidence, so the tcp stage times it.
    started = time.perf_counter()
    (
        blocks, block_tcp_pkts, block_tcp_bytes,
        block_has_source, any_survives, any_failed,
    ) = kernel.address_pass(
        finalized.dst_ips,
        finalized.ip_tcp_pkts_est,
        finalized.ip_tcp_bytes_est,
        finalized.block_shift,
        finalized.unforgiven_src_blocks,
        finalized.src_ips_by_day,
        config.avg_size_threshold,
        config.ip_size_threshold,
    )
    surviving = np.ones(len(blocks), dtype=bool)
    counts = [len(blocks)]

    def keep(name: str, started: float, mask: np.ndarray) -> None:
        nonlocal surviving
        surviving = surviving & mask
        seconds = time.perf_counter() - started
        counts.append(int(surviving.sum()))
        if context is not None:
            context.emit(
                "stage", name, seconds, rows_in=counts[-2], rows_out=counts[-1]
            )

    # 1. The block must receive TCP at all.
    any_tcp = block_tcp_pkts > 0
    keep("tcp", started, any_tcp)

    # 2. The block's inbound TCP mean size must stay small.
    started = time.perf_counter()
    with np.errstate(divide="ignore", invalid="ignore"):
        block_avg = np.where(
            any_tcp, block_tcp_bytes / np.maximum(block_tcp_pkts, 1), np.inf
        )
    keep("avg-size", started, block_avg <= config.avg_size_threshold)

    # 3. Some address must individually survive: IBR-like TCP and never
    # a source.  An address *fails* on payload-bearing TCP or when it
    # sources; UDP-only addresses carry no TCP evidence either way.
    started = time.perf_counter()
    keep("source-unseen", started, any_survives)

    # 4. Outside private / multicast / reserved space.
    started = time.perf_counter()
    keep("special", started, ~special.special_mask(blocks))

    # 5. Inside a globally announced prefix.
    started = time.perf_counter()
    keep("routed", started, routing.routed_mask(blocks))

    # 6. Daily-median volume under the asymmetry threshold.
    started = time.perf_counter()
    volume_est = np.zeros(len(blocks))
    vol_pos, hit = align_sorted(blocks, finalized.vol_blocks)
    volume_est[hit] = finalized.vol_median_est[vol_pos[hit]]
    before_volume = surviving
    keep("volume", started, volume_est <= config.volume_threshold_pkts_day)

    # 7. Dark iff no address fails and no unforgiven source; gray iff a
    # source; unclean otherwise.  Step 3 marks no address of a block
    # without unforgiven sources a source, so one there fails on size.
    started = time.perf_counter()
    clean = surviving & ~block_has_source
    dark = clean & ~any_failed
    unclean = clean & any_failed
    gray = surviving & block_has_source
    seconds = time.perf_counter() - started
    if context is not None:
        context.emit(
            "stage", "classify", seconds,
            rows_in=counts[-1], rows_out=counts[-1],
            meta={
                "dark": int(dark.sum()),
                "unclean": int(unclean.sum()),
                "gray": int(gray.sum()),
            },
        )

    return PipelineResult(
        dark_blocks=blocks[dark],
        unclean_blocks=blocks[unclean],
        gray_blocks=blocks[gray],
        funnel=FunnelCounts(*counts),
        volume_filtered_blocks=blocks[before_volume & ~surviving],
        applied_tolerances=finalized.applied_tolerances,
        family=finalized.family,
    )

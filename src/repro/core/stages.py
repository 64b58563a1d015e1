"""The stage engine: the seven-step funnel as explicit stages.

The paper's Figure-2 funnel is a composition of per-/24 eligibility
filters followed by a per-IP classification.  Each step is a
:class:`Stage` object that reads the finalized accumulator columns
(:class:`repro.core.accum.FinalizedAggregates`) through a shared
:class:`StageContext` and returns a per-block eligibility mask; the
:class:`StageEngine` ANDs the masks in pipeline order, records one
funnel count and one wall-time per stage, and classifies the survivors
into dark / unclean / gray exactly as the batch pipeline always has.

The engine is deliberately pure over *finalized* columns: whether those
columns came from one giant vantage-day table, from a chunk-by-chunk
stream, or from merging federation partials, classification is
bit-identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from repro.bgp.rib import RoutingTable
from repro.net.blocksets import align_sorted, sorted_member_mask
from repro.net.special import SpecialPurposeRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (accum ← stages)
    from repro.core.accum import FinalizedAggregates


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


@dataclass(frozen=True, slots=True)
class StageTiming:
    """Wall time and survivor count of one stage evaluation."""

    stage: str
    seconds: float
    surviving: int


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
    #: Per-stage wall time of this run (``()`` when not recorded).
    stage_timings: tuple[StageTiming, ...] = ()
    #: Address family the block ids live in.
    family: str = "ipv4"

    def num_dark(self) -> int:
        """Number of inferred meta-telescope prefixes."""
        return len(self.dark_blocks)


class StageContext:
    """Shared, lazily derived per-block state the stages read from.

    The per-IP survival evidence is computed once (on first access) and
    reused by the source-unseen stage and the final classification.
    """

    def __init__(
        self,
        finalized: "FinalizedAggregates",
        config: PipelineConfig,
        routing: RoutingTable,
        special: SpecialPurposeRegistry,
    ) -> None:
        self.finalized = finalized
        self.config = config
        self.routing = routing
        self.special = special
        ip_blocks = finalized.dst_ips >> finalized.block_shift
        if not np.all(ip_blocks[1:] >= ip_blocks[:-1]):
            raise ValueError(
                "finalized columns must be sorted by destination key"
            )
        # Sorted keys (finalize() emits nothing else): the block axis
        # falls out of one boundary scan, and every per-block reduction
        # is a run reduction over the block starts it found.
        firsts = np.ones(len(ip_blocks), dtype=bool)
        np.not_equal(ip_blocks[1:], ip_blocks[:-1], out=firsts[1:])
        self._starts: np.ndarray = np.flatnonzero(firsts)
        self.blocks: np.ndarray = ip_blocks[self._starts]
        self.position: np.ndarray = np.cumsum(firsts) - 1
        self.num_blocks: int = len(self.blocks)

    # -- per-block reductions ------------------------------------------

    def per_block_any(self, mask: np.ndarray) -> np.ndarray:
        """OR-reduce a per-IP mask onto the block axis."""
        return np.logical_or.reduceat(mask, self._starts)

    def per_block_sum(self, values: np.ndarray) -> np.ndarray:
        """Sum-reduce a per-IP column onto the block axis."""
        return np.bincount(
            self.position, weights=values, minlength=self.num_blocks
        )

    # -- shared evidence -----------------------------------------------

    @cached_property
    def blocks_with_real_sources(self) -> np.ndarray:
        """Source /24s whose pooled packets exceed the tolerance."""
        finalized = self.finalized
        return finalized.src_blocks[finalized.src_block_excess > 0]

    @cached_property
    def _ip_survival(self) -> tuple[np.ndarray, np.ndarray]:
        """(survives, fails) per destination IP.

        An address *survives* when its TCP looks like IBR and it never
        sources; it *fails* when it shows payload-bearing TCP or
        sources traffic.  UDP-only addresses carry no TCP evidence
        either way and stay neutral.
        """
        finalized = self.finalized
        has_tcp = finalized.ip_tcp_pkts_est > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            avg_size = np.where(
                has_tcp,
                finalized.ip_tcp_bytes_est
                / np.maximum(finalized.ip_tcp_pkts_est, 1),
                np.inf,
            )
        ip_size_ok = avg_size <= self.config.ip_size_threshold
        # A block's sources are forgiven entirely when their pooled
        # sampled packets stay within the pooled tolerance, so only
        # addresses inside a block that holds unforgiven sources are
        # probed against the (sorted) source table at all.
        ip_is_source = self.block_has_source[self.position]
        inside = np.flatnonzero(ip_is_source)
        ip_is_source[inside] = sorted_member_mask(
            finalized.dst_ips[inside], finalized.src_ips
        )
        survives = has_tcp & ip_size_ok & ~ip_is_source
        fails = (has_tcp & ~ip_size_ok) | ip_is_source
        return survives, fails

    @cached_property
    def block_any_survivor(self) -> np.ndarray:
        """Per block: any address individually survives."""
        return self.per_block_any(self._ip_survival[0])

    @cached_property
    def block_any_failed(self) -> np.ndarray:
        """Per block: any address individually fails."""
        return self.per_block_any(self._ip_survival[1])

    @cached_property
    def block_has_source(self) -> np.ndarray:
        """Per block: unforgiven source sightings exist."""
        return sorted_member_mask(self.blocks, self.blocks_with_real_sources)

    @cached_property
    def block_tcp_pkts(self) -> np.ndarray:
        """Estimated TCP packets per block."""
        return self.per_block_sum(self.finalized.ip_tcp_pkts_est)


class Stage:
    """One eligibility filter of the funnel."""

    #: Short identifier used in timing rows and CLI output.
    name: str = "stage"

    def mask(self, ctx: StageContext) -> np.ndarray:
        """Per-block eligibility under this stage alone."""
        raise NotImplementedError


class TcpStage(Stage):
    """Step 1: the /24 must receive TCP at all."""

    name = "tcp"

    def mask(self, ctx: StageContext) -> np.ndarray:
        return ctx.block_tcp_pkts > 0


class AvgSizeStage(Stage):
    """Step 2: the block's inbound TCP mean size must stay small."""

    name = "avg-size"

    def mask(self, ctx: StageContext) -> np.ndarray:
        block_tcp_bytes = ctx.per_block_sum(ctx.finalized.ip_tcp_bytes_est)
        any_tcp = ctx.block_tcp_pkts > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            block_avg = np.where(
                any_tcp,
                block_tcp_bytes / np.maximum(ctx.block_tcp_pkts, 1),
                np.inf,
            )
        return block_avg <= ctx.config.avg_size_threshold


class SourceUnseenStage(Stage):
    """Step 3: some address must individually survive (never source)."""

    name = "source-unseen"

    def mask(self, ctx: StageContext) -> np.ndarray:
        return ctx.block_any_survivor


class SpecialStage(Stage):
    """Step 4: outside private / multicast / reserved space."""

    name = "special"

    def mask(self, ctx: StageContext) -> np.ndarray:
        return ~ctx.special.special_mask(ctx.blocks)


class RoutedStage(Stage):
    """Step 5: inside a globally announced prefix."""

    name = "routed"

    def mask(self, ctx: StageContext) -> np.ndarray:
        return ctx.routing.routed_mask(ctx.blocks)


class VolumeStage(Stage):
    """Step 6: daily-median volume under the asymmetry threshold."""

    name = "volume"

    def mask(self, ctx: StageContext) -> np.ndarray:
        finalized = ctx.finalized
        volume_est = np.zeros(ctx.num_blocks)
        vol_pos, hit = align_sorted(ctx.blocks, finalized.vol_blocks)
        volume_est[hit] = finalized.vol_median_est[vol_pos[hit]]
        return volume_est <= ctx.config.volume_threshold_pkts_day


#: The paper's funnel, in order.  The engine maps these six stages onto
#: the six post-``observed`` fields of :class:`FunnelCounts`.
DEFAULT_STAGES: tuple[Stage, ...] = (
    TcpStage(),
    AvgSizeStage(),
    SourceUnseenStage(),
    SpecialStage(),
    RoutedStage(),
    VolumeStage(),
)


class StageEngine:
    """Runs the stages over finalized columns and classifies survivors."""

    def __init__(self, stages: tuple[Stage, ...] = DEFAULT_STAGES) -> None:
        if len(stages) != len(DEFAULT_STAGES):
            raise ValueError(
                "the funnel has exactly "
                f"{len(DEFAULT_STAGES)} stages (got {len(stages)})"
            )
        self.stages = stages

    def run(
        self,
        finalized: "FinalizedAggregates",
        routing: RoutingTable,
        special: SpecialPurposeRegistry,
        config: PipelineConfig,
        context=None,
    ) -> PipelineResult:
        """Classify finalized columns (``context``: a
        :class:`~repro.core.engine.RunContext`; each stage also lands
        on its observability spine as a ``stage`` event)."""
        ctx = StageContext(finalized, config, routing, special)
        surviving = np.ones(ctx.num_blocks, dtype=bool)
        cumulative: list[np.ndarray] = []
        counts: list[int] = []
        timings: list[StageTiming] = []
        rows_in = ctx.num_blocks
        for stage in self.stages:
            started = time.perf_counter()
            surviving = surviving & stage.mask(ctx)
            elapsed = time.perf_counter() - started
            cumulative.append(surviving)
            counts.append(int(surviving.sum()))
            timings.append(StageTiming(stage.name, elapsed, counts[-1]))
            if context is not None:
                context.emit(
                    "stage", stage.name, elapsed,
                    rows_in=rows_in, rows_out=counts[-1],
                )
            rows_in = counts[-1]

        started = time.perf_counter()
        candidates = cumulative[-1]
        dark = candidates & ~ctx.block_has_source & ~ctx.block_any_failed
        gray = candidates & ctx.block_has_source
        unclean = candidates & ~ctx.block_has_source & ctx.block_any_failed
        volume_filtered = cumulative[-2] & ~cumulative[-1]
        classify_seconds = time.perf_counter() - started
        timings.append(
            StageTiming("classify", classify_seconds, int(candidates.sum()))
        )
        if context is not None:
            context.emit(
                "stage", "classify", classify_seconds,
                rows_in=rows_in, rows_out=int(candidates.sum()),
                meta={
                    "dark": int(dark.sum()),
                    "unclean": int(unclean.sum()),
                    "gray": int(gray.sum()),
                },
            )

        funnel = FunnelCounts(ctx.num_blocks, *counts)
        return PipelineResult(
            dark_blocks=ctx.blocks[dark],
            unclean_blocks=ctx.blocks[unclean],
            gray_blocks=ctx.blocks[gray],
            funnel=funnel,
            volume_filtered_blocks=ctx.blocks[volume_filtered],
            applied_tolerances=finalized.applied_tolerances,
            stage_timings=tuple(timings),
            family=finalized.family,
        )

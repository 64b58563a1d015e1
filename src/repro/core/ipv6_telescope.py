"""End-to-end IPv6 inference: the unchanged engine over /48 sites.

This is the tentpole payoff of the address-family refactor: nothing in
here re-implements classification.  :func:`infer_ipv6` builds a
standard :class:`~repro.core.metatelescope.MetaTelescope` over the v6
world's RIB feed and the IPv6 special-purpose registry, folds the v6
vantage-day views through the ordinary execution engine (batch,
chunked, parallel and online all work — the accumulator adopts the
``ipv6`` family from the first chunk), and runs the seven stages with
v6 thresholds.

What *is* v6-specific sits before and after the engine, exactly where
Section 9 predicts the differences live:

* thresholds — the 44/48-byte fingerprint does not transfer (an IPv6
  TCP SYN is 60 bytes bare), so the world carries its own pair;
* the candidate filter — the v6 universe cannot be enumerated, so the
  engine's dark set is intersected with
  :func:`~repro.core.ipv6_candidates.ipv6_candidate_sites` (announced,
  absent from the incomplete hitlist, never a source);
* scoring — the world's ground truth yields recall/precision of the
  served set, reported alongside the funnel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.ipv6_candidates import Ipv6CandidateResult, ipv6_candidate_sites
from repro.core.metatelescope import MetaTelescope, MetaTelescopeResult
from repro.core.pipeline import PipelineConfig
from repro.core.snapshot import ClassificationSnapshot, build_snapshot
from repro.net.blocksets import sorted_difference, sorted_intersection
from repro.net.family import FAMILY_IPV6, IPV6
from repro.vantage.sampling import VantageDayView
from repro.world.ipv6 import Ipv6World

__all__ = ["Ipv6Coverage", "Ipv6InferenceReport", "ipv6_telescope", "infer_ipv6"]


@dataclass(frozen=True, slots=True)
class Ipv6Coverage:
    """Served /48s scored against the world's ground truth."""

    #: Truly dark sites of orgs announced by the last folded day.
    truth_dark: int
    served: int
    served_dark: int

    def recall(self) -> float:
        """Fraction of the dark ground truth the served set covers."""
        return self.served_dark / self.truth_dark if self.truth_dark else 0.0

    def precision(self) -> float:
        """Fraction of the served set that is truly dark."""
        return self.served_dark / self.served if self.served else 0.0


@dataclass(frozen=True)
class Ipv6InferenceReport:
    """Everything one v6 inference run produced."""

    result: MetaTelescopeResult
    candidates: Ipv6CandidateResult
    #: Engine-dark /48 sites that also survive the candidate filter —
    #: the set a v6 meta-telescope would actually monitor.
    served_sites: np.ndarray
    snapshot: ClassificationSnapshot
    coverage: Ipv6Coverage


def ipv6_telescope(world: Ipv6World) -> MetaTelescope:
    """The standard facade, configured for the v6 world.

    Same class, same engine — only the RIB feed, the special-purpose
    registry and the thresholds are v6.
    """
    config = world.config
    return MetaTelescope(
        collector=world.collector,
        special=IPV6.special_registry(),
        config=PipelineConfig(
            avg_size_threshold=config.avg_size_threshold,
            ip_size_threshold=config.ip_size_threshold,
            volume_threshold_pkts_day=config.volume_threshold_pkts_day,
        ),
    )


def infer_ipv6(
    world: Ipv6World,
    views: list[VantageDayView],
    chunk_size: int | str | None = None,
    workers: int | None = None,
    kernel: str | None = None,
    context=None,
) -> Ipv6InferenceReport:
    """Run the full v6 inference over ``views`` and score it.

    ``chunk_size`` / ``workers`` / ``kernel`` are the ordinary engine
    knobs — classification is bit-identical under any combination, v6
    included (the native kernel declines uint64 keys and the fold falls
    back to the numpy reference).
    """
    if not views:
        raise ValueError("need at least one vantage-day view")
    telescope = ipv6_telescope(world)
    accumulator = telescope.accumulate(
        views, chunk_size=chunk_size, workers=workers, kernel=kernel,
        context=context,
    )
    result = telescope.infer_accumulated(accumulator, context=context)
    if result.pipeline.family != FAMILY_IPV6:
        raise ValueError(
            f"expected an ipv6 fold, got {result.pipeline.family!r}"
        )

    last_day = max(view.day for view in views)
    routing = telescope.routing_for_days(accumulator.days())
    observed_dst = {int(b) for b in accumulator.observed_blocks()}
    observed_src: set[int] = set()
    for blocks, _ in accumulator.vantage_source_blocks().values():
        observed_src.update(int(b) for b in blocks)
    candidates = ipv6_candidate_sites(
        observed_dst,
        observed_src,
        [announcement.prefix for announcement in routing.announcements],
        set(world.hitlist_sites),
    )

    served = sorted_intersection(result.prefixes, candidates.candidate_sites)
    snapshot = build_snapshot(
        day=last_day,
        dark=served,
        unclean=result.pipeline.unclean_blocks,
        gray=result.pipeline.gray_blocks,
        candidate=sorted_difference(result.pipeline.dark_blocks, served),
        provenance={
            "engine": "ipv6",
            "hitlist_sites": len(world.hitlist_sites),
            "candidate_drops": {
                "unannounced": candidates.dropped_unannounced,
                "hitlist": candidates.dropped_hitlist,
                "sources": candidates.dropped_sources,
            },
        },
        family=FAMILY_IPV6,
    )

    truth = world.dark_sites(day=last_day)
    served_set = {int(b) for b in served}
    coverage = Ipv6Coverage(
        truth_dark=len(truth),
        served=len(served_set),
        served_dark=len(served_set & truth),
    )
    return Ipv6InferenceReport(
        result=result,
        candidates=candidates,
        served_sites=served,
        snapshot=snapshot,
        coverage=coverage,
    )

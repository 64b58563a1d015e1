"""End-to-end IPv6 inference: the unchanged engine over /48 sites.

Nothing in here re-implements classification: :func:`ipv6_telescope`
configures a standard :class:`~repro.core.metatelescope.MetaTelescope`
and every execution shape of the ordinary engine — batch, chunked,
parallel, online — serves the same set.  What is v6-specific is
configuration, where Section 9 predicts the differences live:

* thresholds — the 44/48-byte fingerprint does not transfer (an IPv6
  TCP SYN is 60 bytes bare), so the world carries its own pair;
* the candidate filter — the v6 universe cannot be enumerated, so only
  observed sites are judged, and a site must be announced, never a
  source and absent from the (incomplete) hitlist: stage 5, stage 3
  and §4.3 liveness refinement with the hitlist as the dataset;
* reporting — :func:`infer_ipv6` adds the drop counts of
  :func:`~repro.core.ipv6_candidates.ipv6_candidate_sites` (a
  sets-and-loops reading of the same filter: served equals
  ``dark ∩ candidates``) and recall/precision on the ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.ipv6_candidates import Ipv6CandidateResult, ipv6_candidate_sites
from repro.core.metatelescope import MetaTelescope, MetaTelescopeResult
from repro.core.pipeline import PipelineConfig
from repro.core.snapshot import ClassificationSnapshot, build_snapshot
from repro.datasets.liveness import LivenessDataset
from repro.net.family import FAMILY_IPV6, IPV6
from repro.vantage.sampling import VantageDayView
from repro.world.ipv6 import Ipv6World

__all__ = [
    "Ipv6Coverage",
    "Ipv6InferenceReport",
    "ipv6_telescope",
    "infer_ipv6",
    # Not used here: benchmarks/perf/trace.py wraps it in this module.
    "build_snapshot",
]


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
    #: Engine-dark /48 sites absent from the hitlist (``result.prefixes``)
    #: — the set a v6 meta-telescope would actually monitor.
    served_sites: np.ndarray
    snapshot: ClassificationSnapshot
    coverage: Ipv6Coverage


def ipv6_telescope(world: Ipv6World) -> MetaTelescope:
    """The standard facade, configured for the v6 world.

    Same class, same engine — only the RIB feed, the special-purpose
    registry, the thresholds and the liveness dataset (the hitlist)
    are v6.
    """
    config = world.config
    hitlist = np.fromiter(world.hitlist_sites, dtype=np.int64)
    return MetaTelescope(
        collector=world.collector,
        liveness=[LivenessDataset("hitlist", hitlist)],
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
    included (the native kernel folds the uint64 keys in C, bit for bit
    the numpy reference's sums).
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

    routing = telescope.routing_for_days(accumulator.days())
    observed_src: set[int] = set()
    for blocks, _ in accumulator.vantage_source_blocks().values():
        observed_src.update(blocks.tolist())
    candidates = ipv6_candidate_sites(
        set(accumulator.observed_blocks().tolist()),
        observed_src,
        routing,
        world.hitlist_sites,
    )

    last_day = max(view.day for view in views)
    snapshot = result.to_snapshot(
        last_day,
        provenance={
            "engine": "ipv6",
            "hitlist_sites": len(world.hitlist_sites),
            "candidate_drops": {
                "unannounced": candidates.dropped_unannounced,
                "hitlist": candidates.dropped_hitlist,
                "sources": candidates.dropped_sources,
            },
        },
    )
    served = result.prefixes
    truth = world.dark_sites(day=last_day)
    coverage = Ipv6Coverage(
        truth_dark=len(truth),
        served=len(served),
        served_dark=len(truth.intersection(served.tolist())),
    )
    return Ipv6InferenceReport(
        result=result,
        candidates=candidates,
        served_sites=served,
        snapshot=snapshot,
        coverage=coverage,
    )

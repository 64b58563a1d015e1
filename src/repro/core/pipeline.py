"""The seven-step meta-telescope inference pipeline (paper Section 4.2).

Given one or more vantage-day views, the pipeline classifies every
observed destination /24 into **dark** (meta-telescope prefix),
**unclean** or **gray**, applying — in the paper's order:

1. *TCP traffic*: the /24 must receive TCP at all;
2. *Average packet size*: the /24's inbound TCP mean must be <= the
   threshold (44 B);
3. *Source address unseen*: no address of the /24 may appear as a
   source (optionally forgiving up to the spoofing tolerance per /24);
4. *Private / multicast / reserved*: the /24 must be outside
   special-purpose space;
5. *Globally routed*: the /24 must sit inside a prefix announced in the
   (Route Views) routing table;
6. *Asymmetric routes*: the /24's estimated total packet rate must stay
   under the volume threshold (median across days for multi-day runs);
7. *Classification*: dark iff every observed destination IP survives
   and the block has no (unforgiven) source; unclean iff some IP
   survives, some does not, and there is no source; gray iff some IP
   survives while another sources traffic.

Since the streaming refactor this module is a thin facade: ingestion
folds views (whole, or chunk by chunk) into a mergeable
:class:`~repro.core.accum.PrefixAccumulator`, and the classification
itself is :func:`repro.core.stages.run_funnel`, the funnel's steps in
paper order.  Views reach this module only through
:class:`~repro.core.metatelescope.MetaTelescope`, whose fold hands
:func:`run_pipeline_accumulated` the accumulator; batch and chunked
folds differ only in how that accumulator is fed.

Granularity note.  The paper applies filters 1, 2 and 6 "per subnet"
but classifies per IP ("all IPv4 addresses have to survive").  Taken
literally at the IP level, a single sampled 48-byte option-SYN would
taint its destination IP (mean 48 > 44) and demote every well-observed
dark block to unclean — which contradicts the paper's own telescope
coverage.  We therefore evaluate the *size and volume filters per /24*
and give the *per-IP* survival test slack up to
``ip_size_threshold`` = 48 B (the TCP-SYN-with-one-option step the
paper itself highlights): an individual address fails only when it
received no TCP at all or shows payload-bearing traffic beyond that
step.  Source sightings are always per IP.  All counts are rescaled by
each view's sampling factor before thresholds apply, mirroring how
IPFIX estimates true packet counts.
"""

from __future__ import annotations

from repro.bgp.rib import RoutingTable
from repro.core.accum import PrefixAccumulator
from repro.core.engine import RunContext
from repro.core.stages import (
    FunnelCounts,
    PipelineConfig,
    PipelineResult,
    run_funnel,
)
from repro.net.special import SPECIAL_PURPOSE_REGISTRY, SpecialPurposeRegistry

__all__ = [
    "FunnelCounts",
    "PipelineConfig",
    "PipelineResult",
    "PrefixAccumulator",
    "run_pipeline_accumulated",
]


def run_pipeline_accumulated(
    accumulator: PrefixAccumulator,
    routing: RoutingTable,
    config: PipelineConfig | None = None,
    special: SpecialPurposeRegistry = SPECIAL_PURPOSE_REGISTRY,
    context: RunContext | None = None,
) -> PipelineResult:
    """Classify from an already-populated accumulator.

    The classify step of every inference
    (:meth:`~repro.core.metatelescope.MetaTelescope.infer_accumulated`
    calls it): the accumulator may be one fold, the merge of per-day
    partials or of other operators' contributions.
    With a :class:`~repro.core.engine.RunContext` every stage also
    lands on the observability spine as a ``stage`` event.
    """
    if config is None:
        config = PipelineConfig()
    if accumulator.is_empty():
        raise ValueError("need at least one vantage-day view")
    if accumulator.ignore_sources_from_asns != config.ignore_sources_from_asns:
        raise ValueError(
            "accumulator was built with a different ignored-sender set "
            "than the pipeline config"
        )
    finalized = accumulator.finalize(config.spoof_tolerance)
    return run_funnel(
        finalized, routing, special, config, context, kernel=accumulator.kernel
    )

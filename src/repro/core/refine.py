"""Post-inference refinement and spoof-mitigation extensions.

Section 4.3: inferred-dark blocks that any public liveness dataset
(Censys / NDT / ISI) reports active are removed, yielding the *final*
meta-telescope prefix list the rest of the paper analyses.

Section 9 sketches two further spoofing mitigations; both are
implemented here so the ablation bench can compare them:

* dropping source sightings from networks known not to deploy BCP 38
  (the Spoofer-project list) — realised as a pipeline option, with the
  helper :func:`non_bcp38_asns` building the list from a registry;
* ignoring source sightings whose claimed origin lies outside the
  sender's CAIDA customer cone (cone-violating packets are spoofed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bgp.asinfo import ASRegistry
from repro.bgp.topology import AsTopology
from repro.datasets.liveness import LivenessDataset, union_liveness
from repro.datasets.pfx2as import PrefixToAsMap
from repro.net.blocksets import as_sorted_unique, sorted_member_mask
from repro.vantage.sampling import VantageDayView


@dataclass(frozen=True, slots=True)
class RefinementResult:
    """Outcome of the liveness refinement step."""

    final_blocks: np.ndarray
    removed_blocks: np.ndarray

    def removed_fraction(self) -> float:
        """Share of inferred-dark blocks flagged active (paper: 13.9 %)."""
        total = len(self.final_blocks) + len(self.removed_blocks)
        return len(self.removed_blocks) / total if total else 0.0


def refine_with_liveness(
    dark_blocks: np.ndarray, liveness: list[LivenessDataset]
) -> RefinementResult:
    """Drop inferred-dark blocks any liveness dataset reports active."""
    dark = as_sorted_unique(dark_blocks)
    if not liveness:
        return RefinementResult(final_blocks=dark, removed_blocks=dark[:0])
    union = union_liveness(liveness)
    flagged = union.contains(dark)
    return RefinementResult(
        final_blocks=dark[~flagged], removed_blocks=dark[flagged]
    )


def non_bcp38_asns(registry: ASRegistry) -> frozenset[int]:
    """ASes without source-address validation (the Spoofer list)."""
    return frozenset(a.asn for a in registry if not a.spoof_filtered)


def cone_filtered_view(
    view: VantageDayView,
    topology: AsTopology,
    pfx2as: PrefixToAsMap,
) -> VantageDayView:
    """Drop flows whose claimed source violates the sender's cone.

    A flow observed from member AS *s* claiming a source address
    originated by AS *o* is plausible only if *o* lies in *s*'s
    customer cone; everything else is treated as spoofed and excluded
    from the view before inference.
    """
    flows = view.flows
    if len(flows) == 0:
        return view
    claimed_origin = pfx2as.asns_of_blocks(flows.src_blocks())
    sender_asns = flows.sender_asn.astype(np.int64)
    known = (claimed_origin >= 0) & (sender_asns >= 0)
    key = sender_asns * (1 << 32) + claimed_origin
    allowed_keys = np.array(
        [
            pair
            for pair in as_sorted_unique(key[known]).tolist()
            if (pair & 0xFFFFFFFF) in topology.customer_cone(pair >> 32)
        ],
        dtype=np.int64,
    )
    keep = known & sorted_member_mask(key, allowed_keys)
    return VantageDayView(
        vantage=view.vantage,
        day=view.day,
        flows=flows.filter(keep),
        sampling_factor=view.sampling_factor,
    )


def drop_spoofed_ground_truth(view: VantageDayView) -> VantageDayView:
    """Oracle refinement: remove flows the simulator knows are spoofed.

    Not available in reality — used only to upper-bound what perfect
    spoofing mitigation could recover (ablation benches).
    """
    flows = view.flows
    return VantageDayView(
        vantage=view.vantage,
        day=view.day,
        flows=flows.filter(~flows.spoofed),
        sampling_factor=view.sampling_factor,
    )

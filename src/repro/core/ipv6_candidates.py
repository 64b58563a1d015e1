"""IPv6 meta-telescope candidates (prototype of the paper's future work).

Section 9: "Given the vastness of the IPv6 space, our filtering
pipeline would likely need adjustments.  The lack of complete and
reliable hit lists and archives of active measurements for IPv6
further complicate the detection."

Two of the IPv4 pipeline's ideas transfer directly and are prototyped
here at /48 (site) granularity:

* the candidate universe cannot be "all space" — it is the set of
  sites *observed receiving traffic* at the vantage point (the
  IPv4 pipeline's implicit step 0 becomes essential);
* activity evidence flips from an afterthought to a core filter:
  a site is a candidate only if it is observed, announced, absent
  from the (incomplete) hitlist, and never seen sourcing traffic.

"Announced" is the RIB's own block-span probe,
:meth:`~repro.bgp.rib.RoutingTable.routed_mask`: the IPv6 candidates
run the same globally-routed check as the IPv4 pipeline's step 5.

What deliberately does **not** transfer: the 44-byte TCP fingerprint
(IPv6 headers are 40 bytes on their own, so the thresholds differ) and
the per-/24 volume threshold — both are marked as open parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bgp.rib import RoutingTable


@dataclass(frozen=True)
class Ipv6CandidateResult:
    """Outcome of the /48-granularity candidate enumeration."""

    candidate_sites: tuple[int, ...]
    observed: int
    dropped_unannounced: int
    dropped_hitlist: int
    dropped_sources: int


def ipv6_candidate_sites(
    observed_dst_sites: set[int],
    observed_src_sites: set[int],
    routing: RoutingTable,
    hitlist_sites: set[int],
) -> Ipv6CandidateResult:
    """Enumerate /48 sites a future IPv6 meta-telescope could monitor.

    ``observed_dst_sites`` / ``observed_src_sites`` come from the
    vantage point's flow data (destination and source /48s);
    ``routing`` is the IPv6 RIB, probed with the same
    :meth:`~repro.bgp.rib.RoutingTable.routed_mask` the IPv4 step 5
    uses; ``hitlist_sites`` the /48s of known active addresses
    (Gasser-style hitlists — a lower bound, like the IPv4 liveness
    datasets).
    """
    observed = np.array(sorted(observed_dst_sites), dtype=np.int64)
    routed = routing.routed_mask(observed)
    dropped_hitlist = 0
    dropped_sources = 0
    candidates = []
    for site in observed[routed].tolist():
        if site in hitlist_sites:
            dropped_hitlist += 1
            continue
        if site in observed_src_sites:
            dropped_sources += 1
            continue
        candidates.append(site)
    return Ipv6CandidateResult(
        candidate_sites=tuple(candidates),
        observed=len(observed_dst_sites),
        dropped_unannounced=len(observed) - int(routed.sum()),
        dropped_hitlist=dropped_hitlist,
        dropped_sources=dropped_sources,
    )

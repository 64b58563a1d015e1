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

What deliberately does **not** transfer: the 44-byte TCP fingerprint
(IPv6 headers are 40 bytes on their own, so the thresholds differ) and
the per-/24 volume threshold — both are marked as open parameters.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from repro.net.ipv6 import Ipv6Prefix


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
    announced: list[Ipv6Prefix],
    hitlist_sites: set[int],
) -> Ipv6CandidateResult:
    """Enumerate /48 sites a future IPv6 meta-telescope could monitor.

    ``observed_dst_sites`` / ``observed_src_sites`` come from the
    vantage point's flow data (destination and source /48s);
    ``announced`` is the IPv6 RIB; ``hitlist_sites`` the /48s of known
    active addresses (Gasser-style hitlists — a lower bound, like the
    IPv4 liveness datasets).
    """
    starts, ends = _announced_site_intervals(announced)
    dropped_unannounced = 0
    dropped_hitlist = 0
    dropped_sources = 0
    candidates = []
    for site in sorted(observed_dst_sites):
        covering = bisect_right(starts, site) - 1
        if covering < 0 or site >= ends[covering]:
            dropped_unannounced += 1
            continue
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
        dropped_unannounced=dropped_unannounced,
        dropped_hitlist=dropped_hitlist,
        dropped_sources=dropped_sources,
    )


def _announced_site_intervals(
    announced: list[Ipv6Prefix],
) -> tuple[list[int], list[int]]:
    """The announced /48 sites as sorted, disjoint ``[start, end)`` runs.

    Overlapping and adjacent announcements merge; prefixes longer than
    /48 contain no whole site and add nothing.
    """
    starts: list[int] = []
    ends: list[int] = []
    for start, end in sorted(
        (prefix.first_site(), prefix.first_site() + prefix.num_sites())
        for prefix in announced
        if prefix.num_sites()
    ):
        if ends and start <= ends[-1]:
            ends[-1] = max(ends[-1], end)
        else:
            starts.append(start)
            ends.append(end)
    return starts, ends

"""Transit-ISP vantage point (paper Section 9, "The Vantage Point Effect").

The paper's future work: apply the methodology to flows captured at a
large transit ISP instead of an IXP.  The discussion names three
advantages, all modelled here:

* **no asymmetric routing** — a transit provider sees both directions
  of its customers' traffic, so there is no CDN-ACK-style blind spot;
* **BCP 38 at the edge** — customer-facing interfaces validate source
  addresses, so spoofed packets claiming in-cone sources never enter
  (packets from *outside* the cone can still carry arbitrary spoofed
  sources, exactly like at an IXP);
* **higher sampling rates** — NetFlow at 1/100-1/1000 rather than the
  IXPs' 1/10k-class sampling.

The vantage captures every flow whose sender or destination lies in
the provider's customer cone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bgp.topology import AsTopology
from repro.datasets.pfx2as import PrefixToAsMap
from repro.traffic.flows import FlowTable
from repro.vantage.sampling import VantageDayView


@dataclass
class TransitIspVantage:
    """Flow capture at a transit provider's border routers."""

    code: str
    asn: int
    topology: AsTopology
    pfx2as: PrefixToAsMap
    #: NetFlow sampling: 1 / sampling probability (ISPs sample lightly).
    sampling_factor: float = 4.0
    #: Whether customer-facing interfaces enforce BCP 38.
    bcp38_at_edge: bool = True
    _cone: frozenset[int] = field(init=False)

    def __post_init__(self) -> None:
        if self.sampling_factor < 1.0:
            raise ValueError("sampling_factor must be >= 1")
        self._cone = self.topology.customer_cone(self.asn)

    def _cone_mask(self, asns: np.ndarray) -> np.ndarray:
        cone = np.fromiter(self._cone, dtype=np.int64)
        return np.isin(asns.astype(np.int64), cone)

    def capture(
        self, flows: FlowTable, day: int, rng: np.random.Generator
    ) -> VantageDayView:
        """The transit provider's sampled view of one ground-truth day.

        A flow traverses the provider iff its (actual) sender or its
        destination sits inside the cone.  With BCP 38 at the edge,
        in-cone senders cannot emit packets claiming out-of-cone
        sources, so such flows are dropped before export; spoofed
        traffic *entering* from outside is untouched.
        """
        sender_in = self._cone_mask(flows.sender_asn)
        dst_in = self._cone_mask(flows.dst_asn)
        traverses = sender_in | dst_in
        if self.bcp38_at_edge:
            claimed = self.pfx2as.asns_of_blocks(flows.src_blocks())
            claimed_in = self._cone_mask(claimed)
            # In-cone senders claiming an out-of-cone source are
            # dropped at the customer edge.
            martian = sender_in & ~claimed_in
            traverses &= ~martian
        mine = flows.filter(traverses)
        sampled = mine.thin(1.0 / self.sampling_factor, rng)
        return VantageDayView(
            vantage=self.code,
            day=day,
            flows=sampled,
            sampling_factor=self.sampling_factor,
        )

"""IXP vantage points: membership, visibility, flow export.

An IXP sees a flow only if the sender's route toward the destination
crosses its switching fabric.  We model this with per-AS *engagement*
coefficients (direct members engage fully, customers of members
partially via their provider's port, everyone else not at all) and
assign each ground-truth flow to at most one IXP — a packet traverses
at most one public peering point on its path — with probability
proportional to the product of sender-side and receiver-side
engagement and the IXP's capture share.

The exported data is IPFIX-like: packet-sampled flows without payload,
exactly the input the paper's methodology assumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bgp.topology import AsTopology
from repro.traffic.flows import FlowTable
from repro.vantage.sampling import VantageDayView

_CHUNK_ROWS = 500_000


@dataclass(slots=True)
class Ixp:
    """One Internet exchange point."""

    code: str
    region: str
    member_asns: frozenset[int]
    #: Probability that a packet between two fully-engaged members
    #: actually crosses this fabric (route preference, capacity).
    capture_share: float
    #: 1 / sampling probability of the IPFIX export.
    sampling_factor: float
    #: Engagement granted to customers of members (remote peering /
    #: transit via a member).
    customer_engagement: float = 0.55
    #: Continent codes of the fabric's home region.  Customers of
    #: members from other continents still engage (transatlantic
    #: transit does cross the big European fabrics) but at a reduced
    #: coefficient, ``remote_customer_engagement``.
    home_continents: frozenset[str] = frozenset()
    remote_customer_engagement: float = 0.30
    #: ASes whose routes verifiably never cross this fabric (the paper
    #: cannot find TUS1's host at CE1 at all).
    excluded_asns: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        if not 0.0 < self.capture_share <= 1.0:
            raise ValueError(f"capture_share out of range for {self.code}")
        if self.sampling_factor < 1.0:
            raise ValueError(f"sampling_factor must be >= 1 for {self.code}")


class IxpFabric:
    """All IXPs of a world plus the flow-assignment machinery."""

    def __init__(
        self,
        ixps: list[Ixp],
        topology: AsTopology,
        max_asn: int,
        continent_of_asn: dict[int, str] | None = None,
    ) -> None:
        if not ixps:
            raise ValueError("need at least one IXP")
        codes = [ixp.code for ixp in ixps]
        if len(set(codes)) != len(codes):
            raise ValueError("duplicate IXP codes")
        self.ixps = list(ixps)
        self._engagement = np.zeros((len(ixps), max_asn + 1), dtype=np.float32)
        for row, ixp in enumerate(self.ixps):
            for member in ixp.member_asns:
                if member <= max_asn:
                    self._engagement[row, member] = 1.0
            # Customers of members reach the fabric through their
            # provider; out-of-region customers engage at a discount.
            for member in ixp.member_asns:
                for customer in topology.customer_cone(member):
                    if customer > max_asn or self._engagement[row, customer] > 0.0:
                        continue
                    engagement = ixp.customer_engagement
                    if ixp.home_continents and continent_of_asn is not None:
                        continent = continent_of_asn.get(customer)
                        if continent not in ixp.home_continents:
                            engagement = ixp.remote_customer_engagement
                    self._engagement[row, customer] = engagement
            for excluded in ixp.excluded_asns:
                if excluded <= max_asn:
                    self._engagement[row, excluded] = 0.0

    def codes(self) -> list[str]:
        """IXP codes in declaration order."""
        return [ixp.code for ixp in self.ixps]

    def engagement_of(self, ixp_code: str, asn: int) -> float:
        """Engagement coefficient of ``asn`` at the named IXP."""
        row = self.codes().index(ixp_code)
        if asn < 0 or asn >= self._engagement.shape[1]:
            return 0.0
        return float(self._engagement[row, asn])

    def assign_flows(
        self, flows: FlowTable, rng: np.random.Generator
    ) -> np.ndarray:
        """Assign each flow to one IXP (or none).

        Returns an int array per row: the IXP index, or -1 when the
        flow crosses no modelled fabric.  Flows with unknown sender or
        destination AS (``-1``) never cross an IXP.
        """
        num_rows = len(flows)
        result = np.full(num_rows, -1, dtype=np.int32)
        if num_rows == 0:
            return result
        shares = np.array(
            [ixp.capture_share for ixp in self.ixps], dtype=np.float32
        )
        for start in range(0, num_rows, _CHUNK_ROWS):
            stop = min(start + _CHUNK_ROWS, num_rows)
            result[start:stop] = self._assign_chunk(
                flows.sender_asn[start:stop],
                flows.dst_asn[start:stop],
                shares,
                rng,
            )
        return result

    def _assign_chunk(
        self,
        sender_asn: np.ndarray,
        dst_asn: np.ndarray,
        shares: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        num_rows = len(sender_asn)
        max_asn = self._engagement.shape[1] - 1
        sender = np.clip(sender_asn.astype(np.int64), 0, max_asn)
        dst = np.clip(dst_asn.astype(np.int64), 0, max_asn)
        known = (sender_asn >= 0) & (dst_asn >= 0)
        # (rows, ixps) score matrix.
        send_eng = self._engagement[:, sender].T
        recv_eng = self._engagement[:, dst].T
        scores = send_eng * recv_eng * shares[np.newaxis, :]
        scores[~known, :] = 0.0
        totals = scores.sum(axis=1)
        # Cap the total crossing probability: private interconnects and
        # transit-only paths bypass every IXP.
        over = totals > 0.92
        if over.any():
            scores[over, :] *= (0.92 / totals[over])[:, np.newaxis]
        cumulative = np.cumsum(scores, axis=1)
        draw = rng.random(num_rows, dtype=np.float32)
        # For each row, pick the first IXP whose cumulative score
        # exceeds the draw; draws beyond the total fall off the end.
        chosen = (draw[:, np.newaxis] < cumulative).argmax(axis=1)
        missed = draw >= cumulative[:, -1]
        out = chosen.astype(np.int32)
        out[missed] = -1
        return out

    def views_for_day(
        self, flows: FlowTable, day: int, rng: np.random.Generator
    ) -> dict[str, VantageDayView]:
        """Split a ground-truth day into per-IXP sampled views."""
        assignment = self.assign_flows(flows, rng)
        views: dict[str, VantageDayView] = {}
        for index, ixp in enumerate(self.ixps):
            mine = flows.filter(assignment == index)
            sampled = mine.thin(1.0 / ixp.sampling_factor, rng)
            views[ixp.code] = VantageDayView(
                vantage=ixp.code,
                day=day,
                flows=sampled,
                sampling_factor=ixp.sampling_factor,
            )
        return views

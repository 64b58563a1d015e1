"""AS-level topology: provider/customer and peering relationships.

The topology serves three purposes in the reproduction:

* it decides which (src AS, dst AS) traffic pairs are *visible* at a
  given IXP vantage point (traffic crosses the IXP only if the two
  members exchange it there or one transits for the other);
* it provides CAIDA-style *customer cones* for the spoofing-mitigation
  extension discussed in the paper's Section 9;
* it gives each world a stable tier structure (tier-1 backbone,
  mid-tier regionals, stub edges).
"""

from __future__ import annotations

from enum import Enum
import networkx as nx


class Relationship(str, Enum):
    """Inter-AS business relationship (CAIDA serial-1 style)."""

    PROVIDER_CUSTOMER = "p2c"
    PEER_PEER = "p2p"


class AsTopology:
    """Directed AS relationship graph.

    Provider->customer edges point downhill; peer links are stored as a
    symmetric edge pair tagged :attr:`Relationship.PEER_PEER`.
    """

    def __init__(self) -> None:
        self._graph = nx.DiGraph()
        self._cone_cache: dict[int, frozenset[int]] = {}

    def add_as(self, asn: int) -> None:
        """Ensure ``asn`` exists as a node."""
        self._graph.add_node(asn)

    def add_provider_customer(self, provider: int, customer: int) -> None:
        """Record that ``provider`` sells transit to ``customer``."""
        if provider == customer:
            raise ValueError("an AS cannot be its own provider")
        self._graph.add_edge(
            provider, customer, relationship=Relationship.PROVIDER_CUSTOMER
        )
        self._cone_cache.clear()

    def add_peering(self, left: int, right: int) -> None:
        """Record a settlement-free peering between two ASes."""
        if left == right:
            raise ValueError("an AS cannot peer with itself")
        self._graph.add_edge(left, right, relationship=Relationship.PEER_PEER)
        self._graph.add_edge(right, left, relationship=Relationship.PEER_PEER)
        self._cone_cache.clear()

    def providers_of(self, asn: int) -> set[int]:
        """Direct transit providers of ``asn``."""
        return {
            upstream
            for upstream, _, data in self._graph.in_edges(asn, data=True)
            if data["relationship"] is Relationship.PROVIDER_CUSTOMER
        }

    def customers_of(self, asn: int) -> set[int]:
        """Direct customers of ``asn``."""
        return {
            downstream
            for _, downstream, data in self._graph.out_edges(asn, data=True)
            if data["relationship"] is Relationship.PROVIDER_CUSTOMER
        }

    def customer_cone(self, asn: int) -> frozenset[int]:
        """The AS plus everything reachable through customer links.

        This is CAIDA's "customer cone" [Luckie et al., IMC 2013]: the
        set of ASes whose announced space ``asn`` can legitimately
        source traffic from.  Used by the cone-based spoofing filter.
        """
        cached = self._cone_cache.get(asn)
        if cached is not None:
            return cached
        cone: set[int] = set()
        frontier = [asn]
        while frontier:
            current = frontier.pop()
            if current in cone:
                continue
            cone.add(current)
            frontier.extend(self.customers_of(current))
        result = frozenset(cone)
        self._cone_cache[asn] = result
        return result

    def tier1_asns(self) -> list[int]:
        """ASes without any provider (the synthetic backbone clique)."""
        return sorted(
            asn for asn in self._graph.nodes if not self.providers_of(asn)
        )

"""Autonomous-system registry: AS numbers, organisations, business types.

Mirrors the roles of CAIDA's as2org dataset and the IPInfo "IP to
Company" classification used by the paper (Section 3.3): every AS maps
to an operating organisation and one of four business categories.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator

from repro.geo.countries import Continent, Country, country_by_code
from repro.net.ipv4 import Prefix


class ASType(str, Enum):
    """Business categories as used in Table 7 and Figures 12/16/19/20."""

    ISP = "ISP"
    ENTERPRISE = "Enterprise"
    EDUCATION = "Education"
    DATA_CENTER = "Data Center"


@dataclass(frozen=True, slots=True)
class Organization:
    """An operating entity (CAIDA as2org row)."""

    org_id: str
    name: str
    country_code: str


@dataclass(slots=True)
class AutonomousSystem:
    """One AS of the synthetic Internet.

    ``announced`` lists the prefixes the AS originates in BGP;
    ``is_cdn`` marks content networks that attract heavy asymmetric
    ACK traffic (the motivation for pipeline step 6); ``spoof_filtered``
    marks BCP 38 deployment (sources inside this AS are never spoofed
    *by others* claiming its space — the Spoofer-project signal the
    paper's Section 9 discusses).
    """

    asn: int
    name: str
    org_id: str
    as_type: ASType
    country_code: str
    announced: list[Prefix] = field(default_factory=list)
    is_cdn: bool = False
    spoof_filtered: bool = True

    @property
    def country(self) -> Country:
        """The registry row for this AS's country."""
        return country_by_code(self.country_code)

    @property
    def continent(self) -> Continent:
        """Continent of the AS's country."""
        return self.country.continent

    def num_announced_blocks(self) -> int:
        """Total /24 blocks announced by this AS."""
        return sum(prefix.num_blocks() for prefix in self.announced)


class ASRegistry:
    """Index of all ASes and organisations in a world."""

    def __init__(self) -> None:
        self._by_asn: dict[int, AutonomousSystem] = {}
        self._orgs: dict[str, Organization] = {}

    def __len__(self) -> int:
        return len(self._by_asn)

    def __iter__(self) -> Iterator[AutonomousSystem]:
        return iter(self._by_asn.values())

    def add(self, autonomous_system: AutonomousSystem) -> None:
        """Register an AS; its ASN must be unique."""
        asn = autonomous_system.asn
        if asn in self._by_asn:
            raise ValueError(f"duplicate ASN {asn}")
        self._by_asn[asn] = autonomous_system

    def add_org(self, org: Organization) -> None:
        """Register an organisation (idempotent for identical rows)."""
        existing = self._orgs.get(org.org_id)
        if existing is not None and existing != org:
            raise ValueError(f"conflicting organisation {org.org_id}")
        self._orgs[org.org_id] = org

    def get(self, asn: int) -> AutonomousSystem:
        """Look up an AS by number; raises KeyError if unknown."""
        return self._by_asn[asn]

    def org(self, org_id: str) -> Organization:
        """Look up an organisation; raises KeyError if unknown."""
        return self._orgs[org_id]

    @classmethod
    def from_ases(cls, ases: Iterable[AutonomousSystem]) -> "ASRegistry":
        """Build a registry (and synthetic orgs) from AS records."""
        registry = cls()
        for autonomous_system in ases:
            registry.add(autonomous_system)
            registry.add_org(
                Organization(
                    org_id=autonomous_system.org_id,
                    name=f"{autonomous_system.name} Org",
                    country_code=autonomous_system.country_code,
                )
            )
        return registry

"""CAIDA-style AS-to-organisation mapping."""

from __future__ import annotations

from dataclasses import dataclass

from repro.bgp.asinfo import ASRegistry, Organization


@dataclass(frozen=True)
class AsToOrgMap:
    """ASN -> organisation, as the paper's as2org dataset provides."""

    mapping: dict[int, Organization]

    @classmethod
    def from_registry(cls, registry: ASRegistry) -> "AsToOrgMap":
        """Derive the mapping from a world's AS registry."""
        return cls(
            mapping={
                autonomous_system.asn: registry.org(autonomous_system.org_id)
                for autonomous_system in registry
            }
        )

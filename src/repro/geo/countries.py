"""Country and continent registry used by the synthetic Internet.

Each country carries an *allocation weight* (its rough share of the
IPv4 space, heavily skewed toward the US because of legacy /8
allocations — the reason the paper finds the US dominating inferred
meta-telescope space) and a *legacy share* (how much of its space sits
in old, lightly used allocations).

The list is not the full ISO 3166 registry; it is a representative set
spanning all continents, including small countries that the paper
highlights as newly observable through a meta-telescope.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class Continent(str, Enum):
    """World regions as used in the paper's tables and bean plots."""

    NORTH_AMERICA = "NA"
    SOUTH_AMERICA = "SA"
    EUROPE = "EU"
    ASIA = "AS"
    AFRICA = "AF"
    OCEANIA = "OC"
    INTERNATIONAL = "INT"


CONTINENTS: tuple[Continent, ...] = (
    Continent.NORTH_AMERICA,
    Continent.SOUTH_AMERICA,
    Continent.EUROPE,
    Continent.ASIA,
    Continent.AFRICA,
    Continent.OCEANIA,
    Continent.INTERNATIONAL,
)


@dataclass(frozen=True, slots=True)
class Country:
    """A country with its address-allocation characteristics.

    ``allocation_weight`` is proportional to the amount of announced
    IPv4 space; ``legacy_share`` is the fraction of that space in
    legacy (early, lightly used) allocations; ``dark_bias`` scales the
    base probability that a /24 in this country is unused.
    """

    code: str
    name: str
    continent: Continent
    allocation_weight: float
    legacy_share: float
    dark_bias: float


# Weights are coarse, hand-set to reproduce the paper's geography:
# the US dominates (legacy /8s), China is second, central Africa and
# North Korea are barely visible.
COUNTRIES: tuple[Country, ...] = (
    # North America
    Country("US", "United States", Continent.NORTH_AMERICA, 34.0, 0.55, 1.30),
    Country("CA", "Canada", Continent.NORTH_AMERICA, 2.4, 0.30, 1.00),
    Country("MX", "Mexico", Continent.NORTH_AMERICA, 1.0, 0.10, 0.90),
    Country("PA", "Panama", Continent.NORTH_AMERICA, 0.12, 0.05, 0.90),
    Country("CR", "Costa Rica", Continent.NORTH_AMERICA, 0.10, 0.05, 0.90),
    # South America
    Country("BR", "Brazil", Continent.SOUTH_AMERICA, 2.2, 0.10, 0.95),
    Country("AR", "Argentina", Continent.SOUTH_AMERICA, 0.9, 0.08, 0.95),
    Country("CL", "Chile", Continent.SOUTH_AMERICA, 0.4, 0.08, 0.90),
    Country("CO", "Colombia", Continent.SOUTH_AMERICA, 0.4, 0.05, 0.90),
    Country("PE", "Peru", Continent.SOUTH_AMERICA, 0.2, 0.05, 0.90),
    # Europe
    Country("DE", "Germany", Continent.EUROPE, 3.2, 0.20, 0.75),
    Country("GB", "United Kingdom", Continent.EUROPE, 2.8, 0.30, 0.80),
    Country("FR", "France", Continent.EUROPE, 2.2, 0.20, 0.75),
    Country("NL", "Netherlands", Continent.EUROPE, 1.4, 0.20, 0.75),
    Country("IT", "Italy", Continent.EUROPE, 1.3, 0.12, 0.75),
    Country("ES", "Spain", Continent.EUROPE, 1.0, 0.10, 0.75),
    Country("PL", "Poland", Continent.EUROPE, 0.8, 0.08, 0.75),
    Country("SE", "Sweden", Continent.EUROPE, 0.7, 0.20, 0.75),
    Country("CH", "Switzerland", Continent.EUROPE, 0.6, 0.20, 0.75),
    Country("RU", "Russia", Continent.EUROPE, 1.6, 0.10, 0.85),
    Country("UA", "Ukraine", Continent.EUROPE, 0.5, 0.08, 0.85),
    Country("GR", "Greece", Continent.EUROPE, 0.3, 0.08, 0.75),
    Country("PT", "Portugal", Continent.EUROPE, 0.3, 0.08, 0.75),
    # Asia
    Country("CN", "China", Continent.ASIA, 9.0, 0.18, 1.25),
    Country("JP", "Japan", Continent.ASIA, 5.0, 0.35, 1.00),
    Country("KR", "South Korea", Continent.ASIA, 3.0, 0.20, 0.95),
    Country("IN", "India", Continent.ASIA, 1.2, 0.05, 0.90),
    Country("ID", "Indonesia", Continent.ASIA, 0.6, 0.05, 0.90),
    Country("SG", "Singapore", Continent.ASIA, 0.5, 0.10, 0.85),
    Country("TW", "Taiwan", Continent.ASIA, 1.0, 0.20, 0.95),
    Country("VN", "Vietnam", Continent.ASIA, 0.5, 0.05, 0.90),
    Country("TH", "Thailand", Continent.ASIA, 0.5, 0.05, 0.90),
    Country("SA", "Saudi Arabia", Continent.ASIA, 0.3, 0.05, 0.80),
    Country("AE", "United Arab Emirates", Continent.ASIA, 0.3, 0.05, 0.80),
    Country("IR", "Iran", Continent.ASIA, 0.4, 0.05, 0.80),
    Country("KP", "North Korea", Continent.ASIA, 0.002, 0.00, 0.30),
    # Africa
    Country("ZA", "South Africa", Continent.AFRICA, 0.6, 0.10, 0.90),
    Country("EG", "Egypt", Continent.AFRICA, 0.3, 0.05, 0.85),
    Country("NG", "Nigeria", Continent.AFRICA, 0.15, 0.02, 0.85),
    Country("KE", "Kenya", Continent.AFRICA, 0.12, 0.02, 0.85),
    Country("MA", "Morocco", Continent.AFRICA, 0.12, 0.02, 0.85),
    Country("TN", "Tunisia", Continent.AFRICA, 0.08, 0.02, 0.85),
    Country("CD", "DR Congo", Continent.AFRICA, 0.01, 0.00, 0.50),
    Country("TD", "Chad", Continent.AFRICA, 0.005, 0.00, 0.50),
    # Oceania
    Country("AU", "Australia", Continent.OCEANIA, 1.8, 0.25, 1.00),
    Country("NZ", "New Zealand", Continent.OCEANIA, 0.4, 0.20, 0.95),
    Country("FJ", "Fiji", Continent.OCEANIA, 0.02, 0.02, 0.80),
    # International (anycast / multi-region organisations)
    Country("ZZ", "International", Continent.INTERNATIONAL, 0.15, 0.10, 0.80),
)

_BY_CODE = {country.code: country for country in COUNTRIES}


def country_by_code(code: str) -> Country:
    """Look up a country by its two-letter code.

    Raises :class:`KeyError` for unknown codes.
    """
    return _BY_CODE[code]

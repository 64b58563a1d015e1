"""Geographic distribution of meta-telescope prefixes (Figures 4, 13-15;
the country/AS columns of Table 6)."""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.datasets.geodb import GeoDatabase
from repro.datasets.pfx2as import PrefixToAsMap
from repro.geo.countries import country_by_code


def country_counts(
    blocks: np.ndarray, geodb: GeoDatabase
) -> dict[str, int]:
    """Number of meta-telescope /24s per country code (Figure 4 data)."""
    codes = geodb.lookup(np.asarray(blocks, dtype=np.int64))
    counter = Counter(str(code) for code in codes if code != "??")
    return dict(sorted(counter.items(), key=lambda item: -item[1]))


def continent_counts(
    blocks: np.ndarray, geodb: GeoDatabase
) -> dict[str, int]:
    """Number of meta-telescope /24s per continent."""
    per_country = country_counts(blocks, geodb)
    counter: Counter[str] = Counter()
    for code, count in per_country.items():
        counter[country_by_code(code).continent.value] += count
    return dict(
        sorted(counter.items(), key=lambda item: -item[1])
    )


def inventory_row(
    blocks: np.ndarray, geodb: GeoDatabase, pfx2as: PrefixToAsMap
) -> tuple[int, int, int]:
    """(num prefixes, num ASes, num countries) — one Table 6 row."""
    blocks = np.asarray(blocks, dtype=np.int64)
    asns = pfx2as.asns_of_blocks(blocks)
    num_ases = len(np.unique(asns[asns >= 0]))
    num_countries = len(country_counts(blocks, geodb))
    return len(blocks), num_ases, num_countries


def log_scale_world_counts(counts: dict[str, int]) -> dict[str, float]:
    """log10 country counts, the color scale of the world maps."""
    return {
        code: float(np.log10(count)) for code, count in counts.items() if count > 0
    }

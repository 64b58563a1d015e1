"""Network-type breakdown of meta-telescope prefixes (paper Table 7)."""

from __future__ import annotations

import numpy as np

from repro.bgp.asinfo import ASType
from repro.datasets.geodb import GeoDatabase
from repro.datasets.ipinfo import AsClassification
from repro.datasets.pfx2as import PrefixToAsMap

#: Row order of Table 7.
TABLE7_CONTINENTS: tuple[str, ...] = ("NA", "SA", "EU", "AS", "AF", "OC", "INT")
#: Column order of Table 7.
TABLE7_TYPES: tuple[ASType, ...] = (
    ASType.ISP,
    ASType.ENTERPRISE,
    ASType.EDUCATION,
    ASType.DATA_CENTER,
)


def type_continent_matrix(
    blocks: np.ndarray,
    geodb: GeoDatabase,
    pfx2as: PrefixToAsMap,
    ipinfo: AsClassification,
) -> dict[str, dict[str, int]]:
    """Counts of meta-telescope /24s per continent x network type.

    Returns ``{continent: {"Total": n, "ISP": ..., ...}}`` with an
    extra ``"All"`` row, matching Table 7's layout.  Blocks whose AS or
    country cannot be resolved are skipped, like the paper's
    unmappable prefixes.
    """
    blocks = np.asarray(blocks, dtype=np.int64)
    codes = geodb.lookup(blocks)
    asns = pfx2as.asns_of_blocks(blocks)
    result: dict[str, dict[str, int]] = {
        continent: {"Total": 0, **{t.value: 0 for t in TABLE7_TYPES}}
        for continent in ("All", *TABLE7_CONTINENTS)
    }
    from repro.geo.countries import country_by_code  # noqa: PLC0415

    for code, asn in zip(codes, asns):
        if code == "??" or asn < 0:
            continue
        as_type = ipinfo.type_of(int(asn))
        if as_type is None:
            continue
        continent = country_by_code(str(code)).continent.value
        for row in ("All", continent):
            result[row]["Total"] += 1
            result[row][as_type.value] += 1
    return result


def dark_share_by_type(
    dark_blocks: np.ndarray,
    all_blocks: np.ndarray,
    pfx2as: PrefixToAsMap,
    ipinfo: AsClassification,
) -> dict[str, float]:
    """Fraction of each network type's announced space inferred dark.

    The quantity behind Figure 16: data centers should show the
    smallest share (young, densely used allocations).
    """
    dark = np.unique(np.asarray(dark_blocks, dtype=np.int64))
    universe = np.unique(np.asarray(all_blocks, dtype=np.int64))
    universe_types = ipinfo.types_of(pfx2as.asns_of_blocks(universe))
    dark_mask = np.isin(universe, dark)
    shares: dict[str, float] = {}
    labels = np.array(
        [t.value if t is not None else "" for t in universe_types], dtype=object
    )
    for as_type in TABLE7_TYPES:
        mask = labels == as_type.value
        total = int(mask.sum())
        shares[as_type.value] = (
            float(dark_mask[mask].sum() / total) if total else 0.0
        )
    return shares

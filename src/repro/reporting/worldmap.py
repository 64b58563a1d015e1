"""Text stand-in for the world-map figures (Figures 4, 13-15).

The paper colours countries by log10 of their meta-telescope /24
count; the text rendering prints the same logarithmic scale as bars
per country, grouped by continent.
"""

from __future__ import annotations

import math

from repro.geo.countries import country_by_code

#: Characters in the longest bar.
_WIDTH = 40


def render_country_bars(
    counts: dict[str, int], top: int | None = None
) -> str:
    """Log-scaled horizontal bars, most-covered country first."""
    items = sorted(counts.items(), key=lambda item: -item[1])
    if top is not None:
        items = items[:top]
    if not items:
        return "(no data)"
    peak = math.log10(max(count for _, count in items) + 1)
    lines = []
    for code, count in items:
        country = country_by_code(code)
        magnitude = math.log10(count + 1)
        filled = int(round(magnitude / peak * _WIDTH)) if peak else 0
        lines.append(
            f"{code} {country.continent.value:>3} {'█' * filled:<{_WIDTH}} {count:>8,}"
        )
    return "\n".join(lines)

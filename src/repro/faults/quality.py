"""Per-day feed-quality scoring.

Before folding a day into the rolling window, the online operator wants
one number summarising "can I trust this feed today?".  The score is
the *minimum* of independent component scores (a feed is as good as its
worst defect), each in ``[0, 1]``:

* **presence** — views delivered vs the number of feeds expected;
* **volume** — estimated packet total vs the trailing-median history
  (catches truncated days and misreported sampling rates alike);
* **duplicates** — share of exactly repeated rows beyond the small
  natural collision rate (re-emitted export batches);
* **validity** — share of physically impossible rows (zeroed
  destinations, sub-header byte counts, empty packet counts);
* **sampling** — plausibility of the advertised sampling factors,
  optionally against per-vantage typical values learned on clean days.

Scoring never raises: an empty day scores 0.0 with reason
``"no views"``, which is exactly what degraded-mode policies key on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.faults.injectors import MIN_BYTES_PER_PACKET
from repro.net.family import FAMILY_IPV6
from repro.traffic.flows import FlowTable
from repro.vantage.sampling import VantageDayView

#: Two rows are exact duplicates when they agree on all of these.
DUPLICATE_COLUMNS = ("src_ip", "dst_ip", "proto", "dport", "packets", "bytes")
#: An IPv6 table's ``src_ip``/``dst_ip`` are /64 ids, so its rows are
#: compared on the low 64 address bits as well.
DUPLICATE_COLUMNS_V6 = DUPLICATE_COLUMNS + ("src_ip_lo", "dst_ip_lo")
#: Exact-duplicate share below this is considered natural collision noise.
NATURAL_DUPLICATE_SHARE = 0.02
#: Duplicate share at which the duplicates component reaches zero.
DUPLICATE_ZERO_SHARE = 0.5
#: Advertised sampling factors this far (x or /) from the vantage's
#: typical value are implausible.
SAMPLING_TOLERANCE = 4.0


@dataclass(frozen=True, slots=True)
class FeedQuality:
    """Structured quality verdict for one day of views."""

    day: int
    num_views: int
    expected_views: int | None
    total_flows: int
    estimated_packets: float
    volume_ratio: float | None
    duplicate_fraction: float
    invalid_fraction: float
    score: float
    reasons: tuple[str, ...]

    def degraded(self, min_quality: float) -> bool:
        """Whether the day falls below the operator's quality bar."""
        return self.score < min_quality


def _duplicate_fraction(flows: FlowTable) -> float:
    """Share of rows that repeat another in all of ``DUPLICATE_COLUMNS``
    (``DUPLICATE_COLUMNS_V6`` for an IPv6 table).

    Equal rows share their 64-bit address-pair key.  One sort of the
    keys settles a table whose keys never repeat, which is a clean
    feed's usual day; otherwise the rows whose key ties with a
    neighbour are found by an argsort and compared in full.
    """
    total = len(flows)
    if total == 0:
        return 0.0
    key = flows.src_ip.astype(np.uint64) << np.uint64(32)
    key ^= flows.dst_ip.astype(np.uint64)
    ordered = np.sort(key)
    if not (ordered[1:] == ordered[:-1]).any():
        return 0.0
    order = np.argsort(key)
    key = key[order]
    tied = np.zeros(total, dtype=bool)
    tied[1:] = key[1:] == key[:-1]
    tied[:-1] |= tied[1:]
    rows = order[tied]
    v6 = flows.family == FAMILY_IPV6
    names = DUPLICATE_COLUMNS_V6 if v6 else DUPLICATE_COLUMNS
    columns = [getattr(flows, name)[rows] for name in names]
    adjacent = np.lexsort(columns)
    repeats = np.ones(len(rows) - 1, dtype=bool)
    for column in columns:
        column = column[adjacent]
        repeats &= column[1:] == column[:-1]
    return 1.0 - (total - int(repeats.sum())) / total


def _invalid_fraction(flows: FlowTable) -> float:
    if len(flows) == 0:
        return 0.0
    invalid = (
        (flows.dst_ip == 0)
        | (flows.packets <= 0)
        | (flows.bytes < MIN_BYTES_PER_PACKET * flows.packets)
    )
    return float(invalid.mean())


def score_feed(
    day: int,
    views: Sequence[VantageDayView],
    history_packets: Sequence[float] = (),
    expected_views: int | None = None,
    typical_factors: Mapping[str, float] | None = None,
) -> FeedQuality:
    """Score one day of views against the operator's expectations.

    ``history_packets`` holds the estimated packet totals of previous
    *clean* days; ``typical_factors`` the per-vantage sampling factors
    learned from them.  Both default to "no expectations".
    """
    reasons: list[str] = []
    # num_rows: an archive view counts from segment headers, data unread.
    rows = [view.num_rows for view in views]
    total_flows = sum(rows)
    # Estimated true packets: sampled count x sampling factor.  Read off
    # view.flows, which the duplicate and validity checks load anyway.
    estimated = sum(
        float(view.flows.packets.sum()) * view.sampling_factor
        for view in views
    )

    if not views:
        return FeedQuality(
            day=day,
            num_views=0,
            expected_views=expected_views,
            total_flows=0,
            estimated_packets=0.0,
            volume_ratio=0.0 if history_packets else None,
            duplicate_fraction=0.0,
            invalid_fraction=0.0,
            score=0.0,
            reasons=("no views",),
        )

    components: dict[str, float] = {}

    if expected_views is not None and expected_views > 0:
        components["presence"] = min(1.0, len(views) / expected_views)
        if len(views) < expected_views:
            reasons.append(
                f"only {len(views)}/{expected_views} expected feeds delivered"
            )

    ratio: float | None = None
    if history_packets:
        baseline = float(np.median(np.asarray(history_packets, dtype=np.float64)))
        if baseline > 0:
            ratio = estimated / baseline
            components["volume"] = min(1.0, min(ratio, 1.0 / ratio) if ratio else 0.0)
            if components["volume"] < 0.9:
                reasons.append(
                    f"estimated volume {ratio:.2f}x the trailing median"
                )

    weights = np.array(rows, dtype=np.float64)
    total_weight = weights.sum()
    if total_weight > 0:
        duplicate = float(
            np.dot(weights, [_duplicate_fraction(v.flows) for v in views])
            / total_weight
        )
        invalid = float(
            np.dot(weights, [_invalid_fraction(v.flows) for v in views])
            / total_weight
        )
    else:
        duplicate = invalid = 0.0
        reasons.append("all delivered views are empty")
        components["presence"] = 0.0

    excess = max(0.0, duplicate - NATURAL_DUPLICATE_SHARE)
    components["duplicates"] = max(
        0.0, 1.0 - excess / (DUPLICATE_ZERO_SHARE - NATURAL_DUPLICATE_SHARE)
    )
    if excess > 0:
        reasons.append(f"{duplicate:.1%} exactly duplicated rows")

    components["validity"] = max(0.0, 1.0 - 4.0 * invalid)
    if invalid > 0:
        reasons.append(f"{invalid:.1%} physically impossible rows")

    sampling_ok = True
    for view in views:
        if view.sampling_factor < 1.0:
            sampling_ok = False
            reasons.append(
                f"{view.vantage}: sampling factor {view.sampling_factor:g} < 1"
            )
        elif typical_factors and view.vantage in typical_factors:
            typical = typical_factors[view.vantage]
            if typical > 0 and not (
                typical / SAMPLING_TOLERANCE
                <= view.sampling_factor
                <= typical * SAMPLING_TOLERANCE
            ):
                sampling_ok = False
                reasons.append(
                    f"{view.vantage}: sampling factor {view.sampling_factor:g} "
                    f"vs typical {typical:g}"
                )
    components["sampling"] = 1.0 if sampling_ok else 0.3

    score = min(components.values())
    return FeedQuality(
        day=day,
        num_views=len(views),
        expected_views=expected_views,
        total_flows=total_flows,
        estimated_packets=estimated,
        volume_ratio=ratio,
        duplicate_fraction=duplicate,
        invalid_fraction=invalid,
        score=float(score),
        reasons=tuple(reasons),
    )

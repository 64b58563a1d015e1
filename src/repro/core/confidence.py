"""Per-prefix confidence scoring for inferred meta-telescope prefixes.

The paper stresses conservative, low-false-positive inference and
recommends multi-day confirmation before acting on a prefix (§5, §7.1).
An operator serving the list onward ("information as a service") wants
that materialised as a *score* per prefix, not a binary list.  The
score here combines the three evidence dimensions the paper reasons
about:

* **observation depth** — how many distinct addresses of the /24 were
  seen (all surviving); one lucky SYN is weaker evidence than thirty
  clean addresses;
* **traffic margin** — how far the block's estimated volume sits below
  the asymmetric-routing threshold (borderline blocks are risky);
* **recurrence** — on how many individual days the block was inferred
  dark (the §7.1 stability recommendation).

Each dimension maps to [0, 1]; the score is their weighted mean.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.pipeline import PipelineConfig
from repro.net.blocksets import align_sorted

if TYPE_CHECKING:
    from repro.core.accum import PrefixAccumulator


@dataclass(frozen=True, slots=True)
class ConfidenceWeights:
    """Relative weights of the three evidence dimensions."""

    observation: float = 0.4
    margin: float = 0.25
    recurrence: float = 0.35

    def normalised(self) -> tuple[float, float, float]:
        """The weights scaled to sum to one."""
        total = self.observation + self.margin + self.recurrence
        if total <= 0:
            raise ValueError("weights must sum to a positive value")
        return (
            self.observation / total,
            self.margin / total,
            self.recurrence / total,
        )


@dataclass(frozen=True)
class ConfidenceScores:
    """Scores aligned with ``blocks`` (all in [0, 1])."""

    blocks: np.ndarray
    score: np.ndarray
    observation: np.ndarray
    margin: np.ndarray
    recurrence: np.ndarray

    def above(self, threshold: float) -> np.ndarray:
        """Blocks whose score meets ``threshold``."""
        return self.blocks[self.score >= threshold]


def score_prefixes(
    dark_blocks: np.ndarray,
    accumulator: "PrefixAccumulator",
    daily_dark: dict[int, np.ndarray],
    config: PipelineConfig | None = None,
    saturation_ips: int = 16,
) -> ConfidenceScores:
    """Score each inferred prefix on the three evidence dimensions.

    ``accumulator`` is the fold the inference ran on
    (:meth:`repro.core.metatelescope.MetaTelescope.accumulate`);
    ``daily_dark`` maps each day to that day's independent dark set
    (for recurrence).  ``saturation_ips`` is the observed-address count
    at which the observation dimension saturates at 1.0.
    """
    if config is None:
        config = PipelineConfig()
    blocks = np.unique(np.asarray(dark_blocks, dtype=np.int64))
    finalized = accumulator.finalize()

    # Observation depth: pooled distinct dst IPs per block (the
    # finalized dst IPs are sorted unique, so their blocks are sorted).
    ip_blocks = accumulator.address_family.block_of(finalized.dst_ips)
    first = np.searchsorted(ip_blocks, blocks, side="left")
    distinct = np.searchsorted(ip_blocks, blocks, side="right") - first
    observation = np.minimum(distinct, saturation_ips) / saturation_ips

    # Volume margin: median daily estimate (absent days count as 0, as
    # in the volume filter) relative to the threshold.
    threshold = config.volume_threshold_pkts_day
    at, seen = align_sorted(blocks, finalized.vol_blocks)
    median = np.zeros(len(blocks))
    median[seen] = finalized.vol_median_est[at[seen]]
    margin = (
        np.maximum(0.0, 1.0 - median / threshold)
        if threshold
        else np.zeros(len(blocks))
    )

    # Recurrence: share of days independently inferring the block dark.
    num_days = max(len(daily_dark), 1)
    recurrence = np.zeros(len(blocks))
    for daily in daily_dark.values():
        recurrence += np.isin(blocks, daily)
    recurrence /= num_days

    w_obs, w_margin, w_rec = ConfidenceWeights().normalised()
    score = w_obs * observation + w_margin * margin + w_rec * recurrence
    return ConfidenceScores(
        blocks=blocks,
        score=score,
        observation=observation,
        margin=margin,
        recurrence=recurrence,
    )

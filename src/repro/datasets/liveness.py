"""Liveness observers: Censys-, NDT- and ISI-style activity datasets.

Each dataset reports the set of /24 blocks in which it saw at least one
active address.  Recall is below one (a scanner misses firewalled
hosts; NDT only sees speed-testing eyeballs) and a small share of
entries is stale (a block active when the snapshot was taken but dark
during the measurement week).  The paper uses the union of the three as
a *lower bound* on activity to (a) estimate false positives and
(b) refine the final prefix list (Section 4.3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.net.blocksets import as_sorted_unique, sorted_member_mask, sorted_union


@dataclass(frozen=True, slots=True)
class LivenessDataset:
    """A named set of /24 blocks observed to contain active addresses."""

    name: str
    active_blocks: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "active_blocks", as_sorted_unique(self.active_blocks)
        )

    def contains(self, blocks: np.ndarray) -> np.ndarray:
        """Boolean mask: which of ``blocks`` this dataset marks active."""
        return sorted_member_mask(
            np.asarray(blocks, dtype=np.int64), self.active_blocks
        )

    @classmethod
    def observe(
        cls,
        name: str,
        truly_active_blocks: np.ndarray,
        truly_dark_blocks: np.ndarray,
        recall: float,
        stale_rate: float,
        rng: np.random.Generator,
    ) -> "LivenessDataset":
        """Build an imperfect observer of the ground truth.

        ``recall`` is the probability an active block is listed;
        ``stale_rate`` the probability a dark block appears anyway
        (an address that answered when the snapshot was taken).
        """
        if not 0.0 <= recall <= 1.0:
            raise ValueError(f"recall out of range: {recall}")
        if not 0.0 <= stale_rate <= 1.0:
            raise ValueError(f"stale_rate out of range: {stale_rate}")
        active = np.asarray(truly_active_blocks, dtype=np.int64)
        dark = np.asarray(truly_dark_blocks, dtype=np.int64)
        seen = active[rng.random(len(active)) < recall]
        stale = dark[rng.random(len(dark)) < stale_rate]
        return cls(name=name, active_blocks=np.concatenate([seen, stale]))


def union_liveness(datasets: list[LivenessDataset]) -> LivenessDataset:
    """The union the paper's refinement step uses (Censys ∪ NDT ∪ ISI)."""
    if not datasets:
        raise ValueError("need at least one liveness dataset")
    if len(datasets) == 1:
        return datasets[0]
    merged = sorted_union(*(d.active_blocks for d in datasets))
    name = "+".join(d.name for d in datasets)
    return LivenessDataset(name=name, active_blocks=merged)

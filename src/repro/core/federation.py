"""Federated meta-telescopes (paper Section 9).

The paper sketches two cooperation mechanisms between operators:

* **federated detection** — trusted parties share their inferred
  prefix lists and combine them "to detect meta-telescope prefixes
  with higher accuracy collectively";
* **opt-in marking** — a standardised, *private* tag (a BGP community
  or an RPKI extension known only to the involved parties) with which
  an operator marks its own announced-but-unused space, giving the
  federation ground truth for those prefixes without revealing the
  tagging to scanners.

Both are implemented here.  Votes make the federation robust to one
member's spoofing-polluted or sampling-starved view; the marking
registry short-circuits inference for space whose owners opted in.

Because members are other operators' infrastructure, reports are
sanity-checked before they vote: a member whose dark list is not
(essentially) a subset of what it claims to have observed is excluded,
an implausibly oversized dark list is down-weighted, and at least one
credible member must remain or the combination refuses to produce a
list at all (:class:`QuorumError`).  The bounds are the module
constants below, not options: every caller federates under the same
rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.metatelescope import MetaTelescopeResult

#: A report whose dark list has more than this share of blocks it never
#: observed is fabricated or corrupted, and is excluded.
MAX_FOREIGN_DARK_SHARE = 0.1
#: A dark list more than this many times the median member's suggests a
#: spoofing-polluted view, and votes with half weight.
MAX_SIZE_RATIO = 20.0


@dataclass(frozen=True, slots=True)
class OperatorReport:
    """One federation member's contribution."""

    operator: str
    dark_blocks: np.ndarray
    #: Blocks the operator *observed* (its vote is meaningful only for
    #: these; an unobserved block is an abstention, not a "no").
    observed_blocks: np.ndarray

    @classmethod
    def from_result(
        cls, operator: str, result: MetaTelescopeResult, observed: np.ndarray
    ) -> "OperatorReport":
        """Build a report from a local inference run."""
        return cls(
            operator=operator,
            dark_blocks=np.unique(np.asarray(result.prefixes, dtype=np.int64)),
            observed_blocks=np.unique(np.asarray(observed, dtype=np.int64)),
        )


@dataclass
class MarkingRegistry:
    """The private opt-in tagging of announced-but-unused space.

    Only federation members can resolve the tags; scanners cannot (the
    whole point of keeping the encoding private — tagged prefixes must
    not end up on blacklists).
    """

    _marked: dict[int, str] = field(default_factory=dict)

    def mark(self, blocks: np.ndarray, owner: str) -> None:
        """An operator tags its own unused /24 blocks."""
        for block in np.asarray(blocks, dtype=np.int64):
            self._marked[int(block)] = owner

    def marked_blocks(self) -> np.ndarray:
        """All tagged blocks, sorted."""
        return np.array(sorted(self._marked), dtype=np.int64)


@dataclass(frozen=True, slots=True)
class ReportValidation:
    """Sanity verdict for one member's report."""

    operator: str
    #: Share of the dark list never claimed as observed (impossible
    #: votes — an honest member can only call observed space dark).
    foreign_dark_share: float
    #: Dark-list size relative to the median member's (spoofing
    #: pollution inflates a single member's list far beyond its peers).
    size_ratio: float
    #: 1.0 full vote, 0.5 down-weighted, 0.0 excluded.
    weight: float
    reasons: tuple[str, ...] = ()


class QuorumError(ValueError):
    """No credible member remained to federate."""


@dataclass(frozen=True)
class FederatedResult:
    """Outcome of a federated combination."""

    prefixes: np.ndarray
    #: Of which: confirmed by the vote among observers.
    voted_blocks: np.ndarray
    #: Of which: contributed by the opt-in marking registry.
    marked_blocks: np.ndarray
    validations: tuple[ReportValidation, ...] = ()

    def num_prefixes(self) -> int:
        """Size of the federated meta-telescope."""
        return len(self.prefixes)


def validate_reports(reports: list[OperatorReport]) -> list[ReportValidation]:
    """Sanity-check member reports before they may vote.

    Two invariants are checked: *dark ⊆ observed* (a member can only
    judge space it saw traffic for; a report violating this beyond
    :data:`MAX_FOREIGN_DARK_SHARE` is fabricated or corrupted and is
    excluded) and *plausible size* (a dark list more than
    :data:`MAX_SIZE_RATIO` times the median member's suggests a
    spoofing-polluted view and is down-weighted, not trusted fully).
    """
    sizes = np.array([len(r.dark_blocks) for r in reports], dtype=np.float64)
    median_size = float(np.median(sizes)) if len(sizes) else 0.0
    validations = []
    for report in reports:
        reasons: list[str] = []
        weight = 1.0
        dark_size = len(report.dark_blocks)
        foreign = (
            len(np.setdiff1d(report.dark_blocks, report.observed_blocks))
            / dark_size
            if dark_size
            else 0.0
        )
        if foreign > MAX_FOREIGN_DARK_SHARE:
            weight = 0.0
            reasons.append(
                f"{foreign:.0%} of dark blocks were never observed"
            )
        size_ratio = dark_size / max(median_size, 1.0)
        if weight > 0.0 and size_ratio > MAX_SIZE_RATIO:
            weight = 0.5
            reasons.append(
                f"dark list {size_ratio:.0f}x the median member's"
            )
        validations.append(
            ReportValidation(
                operator=report.operator,
                foreign_dark_share=float(foreign),
                size_ratio=float(size_ratio),
                weight=weight,
                reasons=tuple(reasons),
            )
        )
    return validations


def federate(
    reports: list[OperatorReport],
    registry: MarkingRegistry | None = None,
    min_vote_share: float = 0.5,
) -> FederatedResult:
    """Combine member reports (and the marking registry) into one list.

    A block joins the federated meta-telescope when at least
    ``min_vote_share`` of the (weighted) members that *observed* it
    inferred it dark, or when its owner tagged it in the registry.
    Abstentions (members that never observed the block) do not count
    against it.

    Each report is sanity-checked first — see :func:`validate_reports`
    — and failing members vote with reduced or zero weight.  If no
    credible member remains, :class:`QuorumError` is raised rather than
    serving a list nobody stands behind.  Each operator sends one
    report: a repeated name is a ``ValueError`` naming it.
    """
    if not reports:
        raise ValueError("a federation needs at least one member")
    if not 0.0 < min_vote_share <= 1.0:
        raise ValueError(f"min_vote_share out of range: {min_vote_share}")
    seen: set[str] = set()
    for report in reports:
        if report.operator in seen:
            raise ValueError(
                f"operator {report.operator!r} sent more than one report"
            )
        seen.add(report.operator)

    validations = validate_reports(reports)
    credible = [
        (report, validation.weight)
        for report, validation in zip(reports, validations)
        if validation.weight > 0.0
    ]
    if not credible:
        raise QuorumError(
            f"none of the {len(reports)} member report(s) is credible"
        )

    all_candidates = np.unique(
        np.concatenate([report.dark_blocks for report, _ in credible])
    )
    votes_for = np.zeros(len(all_candidates), dtype=np.float64)
    observers = np.zeros(len(all_candidates), dtype=np.float64)
    for report, weight in credible:
        observers += weight * np.isin(all_candidates, report.observed_blocks)
        votes_for += weight * np.isin(all_candidates, report.dark_blocks)
    # Every vote comes from an observer even if the member's observed
    # set was reported sloppily (within the validation tolerance).
    observers = np.maximum(observers, votes_for)
    share = votes_for / np.maximum(observers, 1e-12)
    voted = all_candidates[share >= min_vote_share]

    marked = (
        registry.marked_blocks() if registry is not None
        else np.empty(0, dtype=np.int64)
    )
    prefixes = np.union1d(voted, marked)
    return FederatedResult(
        prefixes=prefixes,
        voted_blocks=voted,
        marked_blocks=marked,
        validations=tuple(validations),
    )

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
an implausibly oversized dark list is down-weighted, and a ``min_quorum``
of credible members must remain or the combination refuses to produce
a list at all (:class:`QuorumError`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.core.accum import PrefixAccumulator
from repro.core.engine import RunContext
from repro.core.metatelescope import MetaTelescope, MetaTelescopeResult
from repro.core.parallel import tree_merge


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

    @classmethod
    def from_accumulator(
        cls,
        operator: str,
        accumulator: PrefixAccumulator,
        telescope: MetaTelescope,
        use_spoofing_tolerance: bool = False,
    ) -> "OperatorReport":
        """Build a report by classifying streamed partial aggregates.

        The member never has to keep (or share) raw flows: the mergeable
        accumulator it built chunk by chunk is enough to both infer the
        dark list and state which blocks it actually observed.
        """
        result = telescope.infer_accumulated(
            accumulator, use_spoofing_tolerance=use_spoofing_tolerance
        )
        return cls.from_result(operator, result, accumulator.observed_blocks())


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

    def unmark(self, blocks: np.ndarray) -> None:
        """Remove tags (space was put into use)."""
        for block in np.asarray(blocks, dtype=np.int64):
            self._marked.pop(int(block), None)

    def marked_blocks(self) -> np.ndarray:
        """All tagged blocks, sorted."""
        return np.array(sorted(self._marked), dtype=np.int64)

    def owner_of(self, block: int) -> str | None:
        """The operator that tagged ``block``, if any."""
        return self._marked.get(int(block))

    def __len__(self) -> int:
        return len(self._marked)


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

    def excluded(self) -> bool:
        """Whether the member's votes were discarded entirely."""
        return self.weight == 0.0


class QuorumError(ValueError):
    """Too few credible members remained to federate."""


def _coerce_partial(operator: str, partial) -> PrefixAccumulator:
    """Accept an accumulator or its ``to_state()`` wire form."""
    if isinstance(partial, PrefixAccumulator):
        return partial
    if isinstance(partial, Mapping):
        try:
            return PrefixAccumulator.from_state(partial)
        except (KeyError, ValueError) as error:
            raise ValueError(
                f"member {operator!r} sent a malformed wire state: {error}"
            ) from error
    raise TypeError(
        f"member {operator!r} sent a {type(partial).__name__}; expected a "
        "PrefixAccumulator or its to_state() mapping"
    )


def _classify_members(
    members: dict[str, list[PrefixAccumulator]],
    coordinator: MetaTelescope,
    use_spoofing_tolerance: bool,
    context: RunContext | None = None,
) -> list[OperatorReport]:
    """Merge + classify each member's partials, one after another.

    Classification is a pure function of each member's merged
    aggregates.  With a ``context``, one ``member`` event per operator
    lands on the spine.
    """
    reports = []
    for operator, partials in members.items():
        started = time.perf_counter()
        report = OperatorReport.from_accumulator(
            operator,
            tree_merge(partials, copy=True),
            coordinator,
            use_spoofing_tolerance=use_spoofing_tolerance,
        )
        if context is not None:
            context.emit(
                "member",
                operator,
                time.perf_counter() - started,
                rows_out=len(report.dark_blocks),
                meta={"observed": len(report.observed_blocks)},
            )
        reports.append(report)
    return reports


@dataclass(frozen=True)
class FederatedResult:
    """Outcome of a federated combination."""

    prefixes: np.ndarray
    #: Of which: confirmed by the vote among observers.
    voted_blocks: np.ndarray
    #: Of which: contributed by the opt-in marking registry.
    marked_blocks: np.ndarray
    votes_for: dict[int, int] = field(default_factory=dict)
    validations: tuple[ReportValidation, ...] = ()

    def num_prefixes(self) -> int:
        """Size of the federated meta-telescope."""
        return len(self.prefixes)

    def excluded_members(self) -> tuple[str, ...]:
        """Operators whose reports failed the sanity checks."""
        return tuple(v.operator for v in self.validations if v.excluded())

    def to_snapshot(self, day: int, provenance=None):
        """Freeze the federated list into a servable snapshot.

        Registry-marked blocks carry confidence 1.0 — their owners
        *declared* them unused, which is ground truth, not inference;
        voted blocks keep the builder's single-day score.
        """
        import dataclasses

        from repro.core.snapshot import build_snapshot

        record = {
            "engine": "federated",
            "members": [v.operator for v in self.validations],
            "excluded": list(self.excluded_members()),
        }
        record.update(provenance or {})
        snapshot = build_snapshot(day=day, dark=self.prefixes, provenance=record)
        if len(self.marked_blocks):
            confidence = snapshot.confidence.copy()
            confidence[np.isin(snapshot.blocks, self.marked_blocks)] = 1.0
            snapshot = dataclasses.replace(snapshot, confidence=confidence)
        return snapshot


def validate_reports(
    reports: list[OperatorReport],
    max_foreign_dark_share: float = 0.1,
    max_size_ratio: float = 20.0,
) -> list[ReportValidation]:
    """Sanity-check member reports before they may vote.

    Two invariants are checked: *dark ⊆ observed* (a member can only
    judge space it saw traffic for; a report violating this beyond
    ``max_foreign_dark_share`` is fabricated or corrupted and is
    excluded) and *plausible size* (a dark list more than
    ``max_size_ratio`` times the median member's suggests a
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
        if foreign > max_foreign_dark_share:
            weight = 0.0
            reasons.append(
                f"{foreign:.0%} of dark blocks were never observed"
            )
        size_ratio = dark_size / max(median_size, 1.0)
        if weight > 0.0 and size_ratio > max_size_ratio:
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
    *,
    validate: bool = True,
    max_foreign_dark_share: float = 0.1,
    max_size_ratio: float = 20.0,
    min_quorum: int = 1,
    partials: Mapping[str, Sequence["PrefixAccumulator | Mapping"]] | None = None,
    coordinator: MetaTelescope | None = None,
    use_spoofing_tolerance: bool = False,
    context: RunContext | None = None,
) -> FederatedResult:
    """Combine member reports (and the marking registry) into one list.

    A block joins the federated meta-telescope when at least
    ``min_vote_share`` of the (weighted) members that *observed* it
    inferred it dark, or when its owner tagged it in the registry.
    Abstentions (members that never observed the block) do not count
    against it.

    With ``validate`` (the default) each report is sanity-checked
    first — see :func:`validate_reports` — and failing members vote
    with reduced or zero weight.  If fewer than ``min_quorum`` credible
    members remain, :class:`QuorumError` is raised rather than serving
    a list nobody stands behind.

    ``partials`` lets members contribute *partial accumulators* (e.g.
    one per day or per ingestion node) instead of finished reports: for
    each ``operator -> accumulators`` entry the partials are tree-merged
    and classified on the ``coordinator`` telescope, and the resulting
    report votes alongside the pre-built ``reports`` (same validation
    rules).  An operator may appear in either or both forms.  Each
    partial may be a :class:`PrefixAccumulator` or its compact columnar
    wire form (:meth:`~PrefixAccumulator.to_state`) — what a remote
    member would actually put on the wire.  A ``context`` records one
    ``member`` event per classified operator on the observability
    spine.
    """
    if partials:
        if coordinator is None:
            raise ValueError(
                "partial accumulators require a coordinator telescope"
            )
        reports = list(reports)
        members: dict[str, list[PrefixAccumulator]] = {}
        for operator, accumulators in partials.items():
            decoded = [
                _coerce_partial(operator, partial) for partial in accumulators
            ]
            if not decoded:
                raise ValueError(f"member {operator!r} sent no partials")
            members[operator] = decoded
        reports.extend(
            _classify_members(
                members, coordinator, use_spoofing_tolerance, context=context
            )
        )
    if not reports:
        raise ValueError("a federation needs at least one member")
    if not 0.0 < min_vote_share <= 1.0:
        raise ValueError(f"min_vote_share out of range: {min_vote_share}")
    if min_quorum < 1:
        raise ValueError(f"min_quorum must be >= 1: {min_quorum}")

    if validate:
        validations = validate_reports(
            reports,
            max_foreign_dark_share=max_foreign_dark_share,
            max_size_ratio=max_size_ratio,
        )
    else:
        validations = [
            ReportValidation(
                operator=report.operator,
                foreign_dark_share=0.0,
                size_ratio=1.0,
                weight=1.0,
            )
            for report in reports
        ]
    weights = {v.operator: v.weight for v in validations}
    credible = [r for r in reports if weights[r.operator] > 0.0]
    if len(credible) < min_quorum:
        raise QuorumError(
            f"only {len(credible)} credible member(s) of {len(reports)} "
            f"remain; quorum is {min_quorum}"
        )

    all_candidates = np.unique(
        np.concatenate([report.dark_blocks for report in credible])
    )
    votes_for = np.zeros(len(all_candidates), dtype=np.float64)
    observers = np.zeros(len(all_candidates), dtype=np.float64)
    for report in credible:
        weight = weights[report.operator]
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
        votes_for={
            int(block): int(round(count))
            for block, count in zip(all_candidates, votes_for)
        },
        validations=tuple(validations),
    )

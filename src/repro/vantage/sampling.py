"""Sampled per-day traffic views.

A :class:`VantageDayView` wraps the flows one vantage point exported on
one day, together with the sampling factor needed to rescale counts to
estimates (IPFIX flows carry sampled packet counts; the paper's volume
filter reasons about estimated true packet counts).

A view holds no aggregate of its own: every per-/24 statistic the
inference and its analyses read is folded from views into one
:class:`repro.core.accum.PrefixAccumulator`
(:meth:`repro.core.metatelescope.MetaTelescope.accumulate`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.traffic.flows import FlowTable


@dataclass
class VantageDayView:
    """Flows one vantage point exported on one day."""

    #: Planner-visible storage class (archive views say ``"archive"``).
    storage = "memory"

    vantage: str
    day: int
    flows: FlowTable
    #: 1 / sampling probability: multiply sampled counts by this to
    #: estimate true counts.  Telescopes and the ISP use 1.0.
    sampling_factor: float = 1.0

    @property
    def num_rows(self) -> int:
        """Flow-record count.

        Part of the duck interface shared with
        :class:`repro.vantage.archive.ArchiveDayView`, where it comes
        from segment headers without touching (or mapping) the column
        data — size-dependent decisions (chunk sizing, sharding) should
        ask this, not ``len(view.flows)``.
        """
        return len(self.flows)

    def iter_chunks(self, chunk_rows: int | None = None):
        """The view's flows as zero-copy bounded-size chunks.

        The streaming-ingestion entry point: feed each chunk to a
        :class:`repro.core.accum.PrefixAccumulator` with this view's
        vantage, day and sampling factor attached.
        """
        return self.flows.iter_chunks(chunk_rows)

    def decimated(self, factor: int, rng: np.random.Generator) -> "VantageDayView":
        """A further sub-sampled copy (the Figure-10 operation)."""
        return VantageDayView(
            vantage=self.vantage,
            day=self.day,
            flows=self.flows.decimate(factor, rng),
            sampling_factor=self.sampling_factor * factor,
        )

    def with_flows(
        self, flows: FlowTable, sampling_factor: float | None = None
    ) -> "VantageDayView":
        """A copy carrying different flows, same vantage and day.

        Fault injectors and replay tools rewrite a view's records
        through this; ``sampling_factor`` defaults to the view's own.
        """
        return VantageDayView(
            vantage=self.vantage,
            day=self.day,
            flows=flows,
            sampling_factor=(
                self.sampling_factor if sampling_factor is None else sampling_factor
            ),
        )

"""Archive-backed vantage-day views: flowpack export and replay.

A :class:`~repro.vantage.sampling.VantageDayView` holds its flows in
memory; an :class:`ArchiveDayView` holds a **path** to a flowpack
archive instead and memory-maps the flows on demand.  The archive's
header metadata carries the vantage code, day and sampling factor, so
one file is a complete, self-describing vantage-day export.

The class quacks like ``VantageDayView`` everywhere the aggregation
core cares (``vantage``/``day``/``sampling_factor``/``num_rows``/
``flows``/``iter_chunks``), so archives feed
:meth:`repro.core.metatelescope.MetaTelescope.accumulate` (serial,
chunked or parallel — :func:`repro.core.engine.execute_plan`)
unchanged.  A parallel fold hands each day to one thread, so a view's
lazy mapping is only ever opened by the thread folding its day.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.flowpack import FlowpackArchive, FlowpackWriter
from repro.traffic.flows import FlowTable
from repro.vantage.sampling import VantageDayView


def export_view(
    view: VantageDayView, path: str | Path, chunk_rows: int | None = None
) -> "ArchiveDayView":
    """Write a vantage-day view as a self-describing flowpack archive.

    ``chunk_rows`` bounds each written segment (the shape a chunked
    capture stream produces); the returned :class:`ArchiveDayView`
    replays the export bit-identically.
    """
    with FlowpackWriter(
        path, meta=_view_meta(view), family=view.flows.family
    ) as writer:
        for chunk in view.flows.iter_chunks(chunk_rows):
            writer.write(chunk)
    return ArchiveDayView(
        vantage=view.vantage,
        day=view.day,
        path=Path(path),
        sampling_factor=view.sampling_factor,
    )


def _view_meta(view: VantageDayView) -> dict:
    return {
        "vantage": view.vantage,
        "day": int(view.day),
        "sampling_factor": float(view.sampling_factor),
    }


@dataclass
class ArchiveDayView:
    """A vantage-day whose flows live in a flowpack archive on disk."""

    #: Planner-visible storage class: rows stream off the mapping, so
    #: the view is paged, not resident.
    storage = "archive"

    vantage: str
    day: int
    path: Path
    #: 1 / sampling probability (see ``VantageDayView``).
    sampling_factor: float = 1.0
    _archive: FlowpackArchive | None = field(
        default=None, repr=False, compare=False
    )
    _flows: FlowTable | None = field(default=None, repr=False, compare=False)

    @classmethod
    def open(cls, path: str | Path) -> "ArchiveDayView":
        """Open an export written by :func:`export_view`.

        Vantage, day and sampling factor come from the archive's own
        metadata — the file is the complete interchange unit.
        """
        archive = FlowpackArchive(path)
        meta = archive.meta
        missing = {"vantage", "day"} - meta.keys()
        if missing:
            raise ValueError(
                f"{path}: archive metadata lacks {sorted(missing)}; "
                "not a vantage-day export"
            )
        view = cls(
            vantage=str(meta["vantage"]),
            day=int(meta["day"]),
            path=archive.path,
            sampling_factor=float(meta.get("sampling_factor", 1.0)),
        )
        view._archive = archive
        return view

    def archive(self) -> FlowpackArchive:
        """The underlying archive (opened lazily, once per view)."""
        if self._archive is None:
            self._archive = FlowpackArchive(self.path)
        return self._archive

    @property
    def num_rows(self) -> int:
        """Row count from segment headers — no column data touched."""
        return self.archive().num_rows

    @property
    def flows(self) -> FlowTable:
        """The full table (zero-copy for single-segment archives)."""
        if self._flows is None:
            self._flows = self.archive().read_all()
        return self._flows

    def iter_chunks(self, chunk_rows: int | None = None):
        """Bounded-size chunks straight off the mapped file (zero-copy).

        A one-segment archive chunks :attr:`flows`, so a view whose
        table was already read (the feed score reads it first) builds
        no second one.  Chunks never cross a segment either way, so
        the chunks, and every fold batch, are the same.
        """
        archive = self.archive()
        if len(archive.segments) == 1:
            return self.flows.iter_chunks(chunk_rows)
        return archive.iter_chunks(chunk_rows)

    # Both build an in-memory view from this one's vantage, day and
    # sampling factor: ``VantageDayView``'s own definitions.
    decimated = VantageDayView.decimated
    with_flows = VantageDayView.with_flows

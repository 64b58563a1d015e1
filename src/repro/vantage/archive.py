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
unchanged — and because an ``ArchiveDayView`` pickles as its *path*
(never its mapped pages), parallel workers re-open the mmap in their
own process and fold their assigned row-ranges directly, with no
payload pickling even under ``spawn``.
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

    #: Planner-visible storage class: rows stream off the memmap, so
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
            path=Path(path),
            sampling_factor=float(meta.get("sampling_factor", 1.0)),
        )
        view._archive = archive
        return view

    def archive(self) -> FlowpackArchive:
        """The underlying archive (opened lazily, once per process)."""
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
        """Bounded-size chunks straight off the memmap (zero-copy)."""
        return self.archive().iter_chunks(chunk_rows)

    def slice_ref(self, start: int, stop: int) -> "ArchiveSlice":
        """A picklable reference to rows ``[start, stop)``.

        This is what the parallel engine ships to workers instead of
        the rows themselves: the worker resolves it by opening the
        archive (its own mmap) and reading the range directly.
        """
        return ArchiveSlice(
            path=self.path, vantage=self.vantage, day=self.day,
            sampling_factor=self.sampling_factor, start=start, stop=stop,
        )

    def decimated(self, factor: int, rng) -> VantageDayView:
        """A further sub-sampled in-memory copy (Figure-10 operation)."""
        return VantageDayView(
            vantage=self.vantage,
            day=self.day,
            flows=self.flows.decimate(factor, rng),
            sampling_factor=self.sampling_factor * factor,
        )

    def estimated_packets(self) -> float:
        """Estimated true packets (streamed; never loads the day whole)."""
        sampled = sum(
            int(chunk.packets.sum()) for chunk in self.iter_chunks(None)
        )
        return float(sampled) * self.sampling_factor

    def with_flows(
        self, flows: FlowTable, sampling_factor: float | None = None
    ) -> VantageDayView:
        """An in-memory view carrying different flows (e.g. after a
        fault injector rewrote the records)."""
        return VantageDayView(
            vantage=self.vantage,
            day=self.day,
            flows=flows,
            sampling_factor=(
                self.sampling_factor
                if sampling_factor is None
                else sampling_factor
            ),
        )

    def __getstate__(self):
        # Pickle the descriptor, never the mapped pages: a spawned
        # worker (or any unpickler) re-opens the archive itself.
        state = self.__dict__.copy()
        state["_archive"] = None
        state["_flows"] = None
        return state


@dataclass(frozen=True)
class ArchiveSlice:
    """Picklable (path, row-range) shard reference for workers."""

    path: Path
    vantage: str
    day: int
    sampling_factor: float
    start: int
    stop: int

    def load(self) -> FlowTable:
        """Open the archive in this process and read the range."""
        return FlowpackArchive(self.path).read_rows(self.start, self.stop)

"""The four workloads: what is stored, what one unit of work is.

Every workload runs the whole operator path -- stored flows ->
verdicts -> published snapshot -> answered queries -- and differs in
which layer does the work (README.md has the table).  A workload is
used in three steps:

``build()``
    the world behind the telescope, from the seed alone (cheap, so the
    memory child rebuilds it instead of unpickling it);
``write_inputs()``
    simulate, thin and write the stored input plus ``manifest.json``
    into the work directory (phase G, untimed);
``attach()``
    read the manifest back; from here on only stored input is used.

A *campaign* is ``steps`` units on one engine state: one unit for the
batch workloads, three consecutive days for ``online_daily``.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.accum import PrefixAccumulator
from repro.core.ipv6_telescope import infer_ipv6, ipv6_telescope
from repro.core.metatelescope import MetaTelescope
from repro.core.online import OnlineMetaTelescope
from repro.core.pipeline import PipelineConfig
from repro.core.snapshot import ClassificationSnapshot
from repro.io import iter_flows_csv, read_flows_csv, write_flows_csv
from repro.vantage.archive import ArchiveDayView, export_view
from repro.vantage.sampling import VantageDayView
from repro.world.builder import build_world
from repro.world.config import WorldConfig, paper_config
from repro.world.ipv6 import build_ipv6_world, giant_ipv6_config, ipv6_day_view
from repro.world.observe import Observatory

#: Columns the reference fold reads.
REF_COLUMNS = ("src_ip", "dst_ip", "proto", "packets", "bytes")


def scaled_paper_config(seed: int, factor: float) -> WorldConfig:
    """``paper_config(seed)`` with its address space shrunk by
    ``factor`` (a power of two).

    The contract's time cap leaves about 35 s per run including
    generation, and a paper-scale day takes 7 s to simulate, so the
    benchmark worlds are a quarter and an eighth of the paper's.  Traffic
    per block is unchanged, so rows, blocks and classified /24s all
    shrink together and the layers keep their proportions.
    """
    base = paper_config(seed)
    deeper = int(round(-np.log2(factor)))
    return base.scaled(
        num_ases=int(base.num_ases * factor),
        general_blocks=int(base.general_blocks * factor),
        legacy_allocations=tuple(
            (country, as_type, length + deeper)
            for country, as_type, length in base.legacy_allocations
        ),
        isp_blocks=int(base.isp_blocks * factor),
        isp_active_blocks=int(base.isp_active_blocks * factor),
        isp_low_active_blocks=int(base.isp_low_active_blocks * factor),
        tus1_blocks=int(base.tus1_blocks * factor),
        teu1_blocks=int(base.teu1_blocks * factor),
        spoof_floods_per_day=max(1, int(base.spoof_floods_per_day * factor)),
    )


def ref_columns_of(views: list) -> dict[str, np.ndarray]:
    """The reference fold's input: plain in-memory copies of the rows a
    unit reads, concatenated over its views."""
    return {
        name: np.concatenate(
            [np.asarray(getattr(view.flows, name)) for view in views]
        )
        for name in REF_COLUMNS
    }


def columns_equal(a: ClassificationSnapshot, b: ClassificationSnapshot) -> bool:
    return all(
        np.array_equal(left, right)
        for left, right in zip(a.arrays().values(), b.arrays().values())
    )


def verdicts_equal(a: ClassificationSnapshot, b: ClassificationSnapshot) -> bool:
    """Same day, family and columns.  Provenance is left out: it records
    the plan, and the plan records the kernel the check varies."""
    return a.day == b.day and a.family == b.family and columns_equal(a, b)


class Workload:
    """Shared plumbing; subclasses say what is stored and what runs."""

    name = ""
    why = ""
    #: Address key -> block id shift for the reference fold.
    shift = 8
    #: Units per campaign.
    steps = 1
    #: Back-to-back reference executions on the reference side of a
    #: pair, chosen so that side lasts about 40 ms on the validation
    #: host: a yardstick much shorter than its unit measures noise.
    ref_repeat = 1
    #: Whether the query phase runs as one burst after every campaign
    #: (so every burst starts on a just-adopted version).
    burst_per_campaign = False

    def __init__(self, seed: int, workdir: Path, smoke: bool = False) -> None:
        self.seed = seed
        self.workdir = Path(workdir)
        self.smoke = smoke
        self.manifest: dict[str, Any] = {}

    # -- phase G -------------------------------------------------------

    def build(self) -> None:
        raise NotImplementedError

    def write_inputs(self) -> dict[str, float]:
        """Write the stored input; returns generation-side layer costs."""
        raise NotImplementedError

    def attach(self) -> None:
        self.manifest = json.loads(
            (self.workdir / "manifest.json").read_text()
        )

    def _export_flowpack(
        self, steps_of_views: list[list[VantageDayView]], simulate_s: float
    ) -> dict[str, float]:
        """Store each step's views as flowpack archives."""
        steps = []
        started = time.perf_counter()
        for views in steps_of_views:
            entries = []
            for view in views:
                path = self.workdir / f"{view.vantage}-d{view.day}.fpk"
                export_view(view, path)
                entries.append({"path": str(path), "rows": view.num_rows})
            steps.append(entries)
        write_s = time.perf_counter() - started
        self._write_manifest(steps)
        rows = sum(entry["rows"] for step in steps for entry in step)
        return {
            "world.generate_s_per_day": simulate_s,
            "flowpack.write_ns_per_row": write_s / max(rows, 1) * 1e9,
        }

    def _write_manifest(self, steps: list[list[dict[str, Any]]]) -> None:
        rows = sum(entry["rows"] for step in steps for entry in step)
        size = sum(
            Path(entry["path"]).stat().st_size for step in steps for entry in step
        )
        (self.workdir / "manifest.json").write_text(
            json.dumps({"steps": steps, "rows": rows, "bytes": size})
        )

    @property
    def rows(self) -> int:
        """Stored rows over all steps of a campaign."""
        return self.manifest["rows"]

    @property
    def stored_bytes(self) -> int:
        return self.manifest["bytes"]

    def paths(self, step: int) -> list[str]:
        return [entry["path"] for entry in self.manifest["steps"][step]]

    def stored_views(self, step: int) -> list:
        """The step's stored input as views (archives stay on disk)."""
        return [ArchiveDayView.open(path) for path in self.paths(step)]

    def reference_inputs(self) -> list[Any]:
        """Per step, what :meth:`reference` folds."""
        return [
            ref_columns_of(self.stored_views(step)) for step in range(self.steps)
        ]

    # -- the system under test ----------------------------------------

    def enrichment(self) -> tuple[Any, Any]:
        """``(pfx2as, geodb)`` the publishing side enriches with."""
        return None, None

    def begin(self, cold: bool) -> Any:
        """Engine state for one campaign; ``cold`` builds everything a
        fresh process would."""
        raise NotImplementedError

    def step(self, state: Any, step: int) -> ClassificationSnapshot:
        """Stored input of ``step`` -> snapshot in memory."""
        raise NotImplementedError

    def baseline(self) -> list[ClassificationSnapshot]:
        """Per step, the snapshot the plain path (whole views, numpy
        kernel) infers from the same stored input."""
        raise NotImplementedError

    def fold_telescope(self) -> MetaTelescope:
        """A telescope for the traced run's direct fold probes."""
        raise NotImplementedError


class _PaperWorld(Workload):
    """IPv4 workloads over a shrunk paper world."""

    factor = 0.25
    smoke_factor = 0.125
    days = 1
    #: Extra 1-in-N packet sampling of every view (``view.decimated``).
    thin = 1

    def build(self) -> None:
        factor = self.smoke_factor if self.smoke else self.factor
        self.world = build_world(scaled_paper_config(self.seed, factor))
        self._warm = self.new_telescope()

    def new_telescope(self) -> MetaTelescope:
        world = self.world
        return MetaTelescope(
            collector=world.collector,
            liveness=world.datasets.liveness,
            unrouted_baseline=world.unrouted_baseline_blocks,
            config=PipelineConfig(
                avg_size_threshold=world.config.avg_size_threshold,
                volume_threshold_pkts_day=world.config.volume_threshold_pkts_day,
            ),
        )

    def enrichment(self) -> tuple[Any, Any]:
        return self.world.datasets.pfx2as, self.world.datasets.geodb

    def fold_telescope(self) -> MetaTelescope:
        return self._warm

    def observed_views(self) -> tuple[list[list[VantageDayView]], float]:
        """Per day, the IXP views after thinning; and the simulation
        seconds per day."""
        observatory = Observatory(self.world)
        rng = self.world.config.child_rng("bench-thinning")
        started = time.perf_counter()
        observations = [observatory.day(day) for day in range(self.days)]
        simulate_s = (time.perf_counter() - started) / self.days
        days = []
        for observation in observations:
            views = list(observation.ixp_views.values())
            if self.thin > 1:
                views = [view.decimated(self.thin, rng) for view in views]
            days.append(views)
        return days, simulate_s

    def write_inputs(self) -> dict[str, float]:
        return self._export_flowpack(*self.observed_views())

    def begin(self, cold: bool) -> MetaTelescope:
        return self.new_telescope() if cold else self._warm

    def baseline(self) -> list[ClassificationSnapshot]:
        return [
            self.new_telescope().infer_snapshot(
                self.stored_views(0),
                use_spoofing_tolerance=True,
                refine=True,
                chunk_size=None,
                kernel="numpy",
            )
        ]


class ArchiveBatch(_PaperWorld):
    name = "archive_batch"
    why = (
        "one day, 14 IXP views as flowpack archives, batch inference: decode "
        "is an mmap, so fold, stages and snapshot build carry the unit"
    )

    ref_repeat = 2

    def step(self, state: MetaTelescope, step: int) -> ClassificationSnapshot:
        return state.infer_snapshot(
            self.stored_views(step),
            use_spoofing_tolerance=True,
            refine=True,
            chunk_size=None,
            kernel="auto",
        )


class CsvStream(_PaperWorld):
    name = "csv_stream"
    why = (
        "a day thinned 1-in-16 as CSV, streamed in 4096-row chunks: row "
        "parsing and the chunked fold carry the unit, kernel and flowpack idle"
    )
    thin = 16

    def write_inputs(self) -> dict[str, float]:
        days, simulate_s = self.observed_views()
        entries = []
        started = time.perf_counter()
        for view in days[0]:
            path = self.workdir / f"{view.vantage}-d{view.day}.csv"
            write_flows_csv(view.flows, path)
            entries.append({
                "path": str(path),
                "rows": view.num_rows,
                "vantage": view.vantage,
                "day": view.day,
                "sampling_factor": view.sampling_factor,
            })
        write_s = time.perf_counter() - started
        self._write_manifest([entries])
        rows = sum(entry["rows"] for entry in entries)
        return {
            "world.generate_s_per_day": simulate_s,
            "io.csv_write_ns_per_row": write_s / max(rows, 1) * 1e9,
        }

    def stored_views(self, step: int) -> list[VantageDayView]:
        return [
            VantageDayView(
                vantage=entry["vantage"],
                day=entry["day"],
                flows=read_flows_csv(entry["path"]),
                sampling_factor=entry["sampling_factor"],
            )
            for entry in self.manifest["steps"][step]
        ]

    def reference_inputs(self) -> list[Any]:
        return [self.paths(0)]

    def step(self, state: MetaTelescope, step: int) -> ClassificationSnapshot:
        accumulator = PrefixAccumulator(kernel="auto")
        entries = self.manifest["steps"][step]
        for entry in entries:
            for chunk in iter_flows_csv(entry["path"], chunk_rows=4096):
                accumulator.update(
                    chunk,
                    vantage=entry["vantage"],
                    day=entry["day"],
                    sampling_factor=entry["sampling_factor"],
                )
        result = state.infer_accumulated(
            accumulator, use_spoofing_tolerance=True
        )
        return result.to_snapshot(max(entry["day"] for entry in entries))


class OnlineDaily(_PaperWorld):
    name = "online_daily"
    why = (
        "three consecutive days through a fresh online engine, publishing "
        "after each: feed scoring, window merges, history and non-empty "
        "deltas, with queries landing on just-adopted versions"
    )
    factor = 0.125
    days = 3
    steps = 3
    thin = 4
    ref_repeat = 6
    burst_per_campaign = True

    def _online(self, telescope: MetaTelescope, **knobs: Any) -> OnlineMetaTelescope:
        return OnlineMetaTelescope(
            telescope=telescope, window_days=3, min_stable_days=2, **knobs
        )

    def begin(self, cold: bool) -> OnlineMetaTelescope:
        return self._online(
            self.new_telescope() if cold else self._warm,
            chunk_size="auto",
            kernel="auto",
        )

    def step(self, state: OnlineMetaTelescope, step: int) -> ClassificationSnapshot:
        state.update(step, self.stored_views(step))
        return state.snapshot()

    def baseline(self) -> list[ClassificationSnapshot]:
        online = self._online(
            self.new_telescope(), chunk_size=None, kernel="numpy"
        )
        return [self.step(online, step) for step in range(self.steps)]


class Ipv6Sites(Workload):
    name = "ipv6_sites"
    why = (
        "two days of a large IPv6 world: uint64 keys keep the fold on the "
        "numpy path, stages and snapshot are tiny, so publish->served is "
        "mostly the worker's poll lag"
    )
    #: Engine keys are /64 ids; /48 sites are 16 bits up.
    shift = 16
    days = 2

    def build(self) -> None:
        config = giant_ipv6_config(self.seed)
        if self.smoke:
            config = dataclasses.replace(config, num_orgs=40)
        self.world = build_ipv6_world(config)

    def write_inputs(self) -> dict[str, float]:
        started = time.perf_counter()
        views = [ipv6_day_view(self.world, day) for day in range(self.days)]
        simulate_s = (time.perf_counter() - started) / self.days
        return self._export_flowpack([views], simulate_s)

    def fold_telescope(self) -> MetaTelescope:
        return ipv6_telescope(self.world)

    def begin(self, cold: bool) -> None:
        return None  # infer_ipv6 builds its telescope on every call

    def step(self, state: None, step: int) -> ClassificationSnapshot:
        return infer_ipv6(
            self.world, self.stored_views(step), kernel="auto"
        ).snapshot

    def baseline(self) -> list[ClassificationSnapshot]:
        return [
            infer_ipv6(
                self.world, self.stored_views(0), chunk_size=None, kernel="numpy"
            ).snapshot
        ]


WORKLOADS = {
    cls.name: cls for cls in (ArchiveBatch, CsvStream, OnlineDaily, Ipv6Sites)
}

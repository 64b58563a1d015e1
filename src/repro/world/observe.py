"""Observation of a world: turning ground-truth traffic into vantage views.

The :class:`Observatory` is the measurement campaign: for each day it
generates the world's ground-truth flows, lets each IXP claim and
sample its share, gives the telescopes and the ISP their unsampled
captures, and caches the resulting views (the ground-truth table itself
is discarded — exactly as unstored line-rate traffic is in reality).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.vantage.sampling import VantageDayView
from repro.world.builder import World

if TYPE_CHECKING:
    from repro.core.engine import RunContext
    from repro.world.capture_cache import CaptureCache


@dataclass
class DayObservation:
    """Everything every vantage point recorded on one day.

    Views are in-memory :class:`VantageDayView` objects on a freshly
    generated day, or archive-backed
    :class:`~repro.vantage.archive.ArchiveDayView` objects when every
    vantage came out of a :class:`~repro.world.capture_cache.CaptureCache`
    — the two share one duck interface, so consumers never care.
    """

    day: int
    ixp_views: dict[str, VantageDayView]
    telescope_views: dict[str, VantageDayView]
    isp_view: VantageDayView


class Observatory:
    """Per-day observation cache over a world.

    With a :class:`~repro.world.capture_cache.CaptureCache` attached,
    each generated vantage-day capture is persisted content-addressed
    by (world config, day, vantage); when *every* vantage of a day is
    already cached, the day is served straight from the archives and
    the expensive ``generate_day`` simulation is skipped entirely.
    Generation is seeded, so a cache hit is bit-identical to
    regenerating.
    """

    def __init__(
        self,
        world: World,
        capture_cache: "CaptureCache | None" = None,
        context: "RunContext | None" = None,
    ) -> None:
        self.world = world
        self.capture_cache = capture_cache
        #: Optional trace spine: ``generate`` and ``cache`` events per day.
        self.context = context
        self._days: dict[int, DayObservation] = {}

    def day(self, day: int) -> DayObservation:
        """Observe (or recall) one day."""
        cached = self._days.get(day)
        if cached is not None:
            return cached
        observation = self._observe(day)
        self._days[day] = observation
        return observation

    def retain(self, days) -> None:
        """Forget every observed day not in ``days``.

        A forgotten day's views (and a recalled day's archive mappings)
        go once nothing else holds them; observing it again generates or
        recalls it afresh.
        """
        keep = set(days)
        self._days = {
            day: observation
            for day, observation in self._days.items()
            if day in keep
        }

    def days(self, num_days: int | None = None) -> list[DayObservation]:
        """Observe days ``0 .. num_days-1`` (default: the config's week)."""
        if num_days is None:
            num_days = self.world.config.num_days
        return [self.day(d) for d in range(num_days)]

    def ixp_views(self, vantage: str, num_days: int | None = None) -> list[VantageDayView]:
        """One IXP's views across the campaign days."""
        return [obs.ixp_views[vantage] for obs in self.days(num_days)]

    def all_ixp_views(self, num_days: int | None = None) -> list[VantageDayView]:
        """Every IXP's view for every campaign day (the "All" dataset)."""
        views = []
        for obs in self.days(num_days):
            views.extend(obs.ixp_views.values())
        return views

    def _observe(self, day: int) -> DayObservation:
        if self.capture_cache is not None:
            started = time.perf_counter()
            recalled = self._recall_cached(day)
            if self.context is not None:
                self.context.emit(
                    "cache",
                    f"d{day}",
                    time.perf_counter() - started,
                    cache_hits=1 if recalled is not None else 0,
                    cache_misses=0 if recalled is not None else 1,
                    bytes=self._cached_bytes(recalled),
                )
            if recalled is not None:
                return recalled

        started = time.perf_counter()
        world = self.world
        traffic_rng = world.config.child_rng(f"traffic-day-{day}")
        ground = world.mix.generate_day(day, traffic_rng)
        ground = world.annotate_dst_asn(ground)

        vantage_rng = world.config.child_rng(f"vantage-day-{day}")
        ixp_views = world.fabric.views_for_day(ground, day, vantage_rng)
        telescope_views = {
            code: telescope.capture(ground, day)
            for code, telescope in world.telescopes.items()
        }
        isp_view = world.isp.capture(ground, day)
        observation = DayObservation(
            day=day,
            ixp_views=ixp_views,
            telescope_views=telescope_views,
            isp_view=isp_view,
        )
        if self.context is not None:
            self.context.emit(
                "generate",
                f"d{day}",
                time.perf_counter() - started,
                rows_in=len(ground),
                rows_out=sum(
                    view.num_rows
                    for view in (
                        *ixp_views.values(),
                        *telescope_views.values(),
                        isp_view,
                    )
                ),
            )
        if self.capture_cache is not None:
            self._store_cached(day, observation)
        return observation

    @staticmethod
    def _cached_bytes(observation: DayObservation | None) -> int | None:
        """On-disk size of a recalled day's archives (None on a miss)."""
        if observation is None:
            return None
        total = 0
        for views in (
            observation.ixp_views.values(),
            observation.telescope_views.values(),
            (observation.isp_view,),
        ):
            for view in views:
                path = getattr(view, "path", None)
                if path is not None:
                    total += path.stat().st_size
        return total

    def _vantage_codes(self) -> tuple[list[str], list[str], str]:
        """Every vantage a day observation must cover."""
        world = self.world
        return (
            world.fabric.codes(),
            sorted(world.telescopes),
            world.isp.code,
        )

    def _recall_cached(self, day: int) -> DayObservation | None:
        """The day served entirely from cached archives, else ``None``.

        All-or-nothing on purpose: a partial hit still pays for
        ``generate_day`` (the dominant cost), so the simpler contract —
        skip generation only when *every* vantage is cached — costs
        nothing and keeps the hit path trivially correct.
        """
        cache = self.capture_cache
        config = self.world.config
        ixp_codes, telescope_codes, isp_code = self._vantage_codes()
        views: dict[str, VantageDayView] = {}
        for code in [*ixp_codes, *telescope_codes, isp_code]:
            view = cache.load(cache.key_for(config, day, code))
            if view is None:
                return None
            views[code] = view
        return DayObservation(
            day=day,
            ixp_views={code: views[code] for code in ixp_codes},
            telescope_views={code: views[code] for code in telescope_codes},
            isp_view=views[isp_code],
        )

    def _store_cached(self, day: int, observation: DayObservation) -> None:
        cache = self.capture_cache
        config = self.world.config
        all_views = [
            *observation.ixp_views.values(),
            *observation.telescope_views.values(),
            observation.isp_view,
        ]
        for view in all_views:
            key = cache.key_for(config, day, view.vantage)
            if not cache.has(key):
                cache.store(key, view)

"""Shared infrastructure for the table/figure benches.

A :class:`PaperStudy` wraps the benchmark-scale world and caches the
expensive intermediate products (weekly views, pooled inferences) so
the whole bench suite performs each heavy computation exactly once per
session.  Every bench prints the rows/series the paper reports and
writes them under ``benchmarks/output/`` for inspection.
"""

from __future__ import annotations

import pathlib

from repro.core.metatelescope import MetaTelescope, MetaTelescopeResult
from repro.vantage.sampling import VantageDayView
from repro.world.observe import Observatory
from repro.world.scenarios import paper_observatory, paper_world

OUTPUT_DIR = pathlib.Path(__file__).resolve().parent / "output"


def emit(name: str, text: str) -> None:
    """Print a rendered artifact and persist it under output/."""
    banner = f"\n===== {name} =====\n"
    print(banner + text)
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / f"{name}.txt").write_text(text + "\n")


class PaperStudy:
    """Cached access to the benchmark world and its inferences."""

    def __init__(self, seed: int = 7) -> None:
        self.world = paper_world(seed)
        self.observatory: Observatory = paper_observatory(seed)
        self.telescope = MetaTelescope.for_world(self.world)
        self._inference_cache: dict[tuple, MetaTelescopeResult] = {}

    # -- view selection --------------------------------------------------

    def views(self, vantage: str = "All", days: int = 1) -> list[VantageDayView]:
        """Views for one IXP code or 'All', over the first ``days`` days."""
        if vantage == "All":
            return self.observatory.all_ixp_views(num_days=days)
        return self.observatory.ixp_views(vantage, num_days=days)

    def views_by_day(self, vantage: str = "All") -> dict[int, list[VantageDayView]]:
        """Per-day view lists over the whole campaign."""
        result: dict[int, list[VantageDayView]] = {}
        for day in range(self.world.config.num_days):
            observation = self.observatory.day(day)
            if vantage == "All":
                result[day] = list(observation.ixp_views.values())
            else:
                result[day] = [observation.ixp_views[vantage]]
        return result

    # -- cached inference --------------------------------------------------

    def infer(
        self,
        vantage: str = "All",
        days: int = 1,
        tolerance: bool = True,
        refine: bool = True,
    ) -> MetaTelescopeResult:
        """Cached full inference for a (vantage, window) combination."""
        key = (vantage, days, tolerance, refine)
        cached = self._inference_cache.get(key)
        if cached is None:
            cached = self.telescope.infer(
                self.views(vantage, days),
                use_spoofing_tolerance=tolerance,
                refine=refine,
            )
            self._inference_cache[key] = cached
        return cached

    def union_final_blocks(self):
        """The paper's "union data set": final prefixes over the week."""
        return self.infer("All", days=self.world.config.num_days).prefixes

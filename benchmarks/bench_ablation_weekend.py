"""Ablation — the weekend effect's mechanism (paper Section 7.1).

The paper *hypothesises* that the weekend surge of inferred prefixes
comes from enterprise/education networks going quiet outside working
hours.  The simulator can test the hypothesis directly: rebuild the
same world with flat weekday profiles (quiet space stays equally
active on weekends) and the surge must disappear.

Runs at the small scale (it needs a second, counterfactual world).
"""

from __future__ import annotations

from _common import emit
from repro.analysis.variability import daily_series
from repro.core.metatelescope import MetaTelescope
from repro.reporting.tables import format_table
from repro.world.builder import build_world
from repro.world.config import small_config
from repro.world.observe import Observatory


def _series(world) -> "daily_series":
    observatory = Observatory(world)
    telescope = MetaTelescope.for_world(world)
    views_by_day = {
        day: list(observatory.day(day).ixp_views.values())
        for day in range(world.config.num_days)
    }
    return daily_series("All", views_by_day, telescope,
                        use_spoofing_tolerance=True)


def test_ablation_weekend_mechanism(benchmark):
    def run():
        factual = build_world(small_config(seed=7))
        counterfactual = build_world(
            small_config(seed=7).scaled(weekend_factor_quiet=1.0)
        )
        return _series(factual), _series(counterfactual)

    factual, counterfactual = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "ablation_weekend",
        format_table(
            ["Day", "quiet weekends (paper world)", "flat weekends"],
            [
                [day, factual.counts[i], counterfactual.counts[i]]
                for i, day in enumerate(factual.days)
            ],
            title="Ablation — weekend effect (small scale)",
        )
        + f"\nweekend uplift: factual {factual.weekend_uplift():.3f}x, "
        f"counterfactual {counterfactual.weekend_uplift():.3f}x",
    )
    # Quiet weekends produce the surge; flat weekends do not.
    assert factual.weekend_uplift() > 1.0
    assert counterfactual.weekend_uplift() < factual.weekend_uplift()

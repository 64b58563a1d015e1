"""Robustness — serving-list quality under injected feed faults.

The paper's Section-9 service vision means operating on feeds the
operator does not control.  This bench runs the online meta-telescope
through every standard fault class (site outage, truncated day,
duplicated records, corrupted fields, misreported sampling, stale RIB)
injected on one campaign day, and measures what the degraded-mode
``carry`` policy preserves: the serving list survives days on which the
strict operator would simply crash, and its precision against ground
truth stays at the clean baseline.

Everything is seeded: the same plan produces byte-identical degraded
feeds on every run.
"""

from __future__ import annotations

import numpy as np
import pytest

from _common import emit
from repro.core.evaluation import confusion_against_truth
from repro.core.metatelescope import MetaTelescope
from repro.core.online import OnlineMetaTelescope
from repro.faults import STANDARD_FAULTS, FaultPlan, standard_injector
from repro.reporting.tables import format_table
from repro.world.scenarios import small_observatory, small_world

SEED = 7
FAULT_DAY = 2
NUM_DAYS = 5
WINDOW = 3


def _plan(fault: str) -> FaultPlan:
    plan = FaultPlan(seed=SEED)
    if fault != "none":
        plan.add(standard_injector(fault, days=frozenset({FAULT_DAY})))
    return plan


def _run(world, observatory, fault: str, policy: str):
    plan = _plan(fault)
    telescope = MetaTelescope.for_world(world)
    telescope.replace_collector(plan.wrap_collector(telescope.collector))
    online = OnlineMetaTelescope(
        telescope=telescope,
        window_days=WINDOW,
        min_stable_days=2,
        policy=policy,
    )
    days = min(NUM_DAYS, world.config.num_days)
    per_day = []
    for day in range(days):
        views = list(observatory.day(day).ixp_views.values())
        update = online.update(day, list(plan.apply(day, views).views))
        confusion = confusion_against_truth(
            online.current_prefixes(), world.index
        )
        per_day.append((update, confusion))
    return per_day


def test_bench_robustness_faults(benchmark):
    world = small_world(SEED)
    observatory = small_observatory(SEED)

    def collect():
        return {
            fault: _run(world, observatory, fault, policy="carry")
            for fault in ("none", *STANDARD_FAULTS)
        }

    results = benchmark.pedantic(collect, rounds=1, iterations=1)

    rows = []
    for fault, per_day in results.items():
        update, confusion = per_day[FAULT_DAY]
        final_update, final_confusion = per_day[-1]
        rows.append(
            (
                fault,
                update.action,
                f"{update.quality.score:.2f}",
                update.serving_size,
                f"{1 - confusion.false_positive_rate_of_inferred():.1%}",
                f"{confusion.recall():.1%}",
                final_update.serving_size,
                f"{1 - final_confusion.false_positive_rate_of_inferred():.1%}",
            )
        )
    emit(
        "robustness_faults",
        format_table(
            ["fault", "day-2 action", "quality", "serving", "precision",
             "recall", "final serving", "final precision"],
            rows,
            title="Degraded-mode operation under injected faults "
            f"(carry policy, fault on day {FAULT_DAY})",
        ),
    )

    clean = results["none"]
    clean_precision = 1 - clean[FAULT_DAY][1].false_positive_rate_of_inferred()

    # The plan is deterministic: replaying an injector yields the same
    # degraded flows byte for byte.
    views = list(observatory.day(FAULT_DAY).ixp_views.values())
    for fault in ("truncate", "duplicate", "corrupt"):
        once = _plan(fault).apply(FAULT_DAY, views)
        again = _plan(fault).apply(FAULT_DAY, views)
        assert len(once.views) == len(again.views)
        for a, b in zip(once.views, again.views):
            assert np.array_equal(a.flows.dst_ip, b.flows.dst_ip)
            assert np.array_equal(a.flows.packets, b.flows.packets)

    # A full outage crashes the strict operator ...
    with pytest.raises(ValueError):
        _run(world, observatory, "outage", policy="strict")
    # ... while degraded mode keeps serving through it.
    outage_update, outage_confusion = results["outage"][FAULT_DAY]
    assert outage_update.action == "carried"
    assert outage_update.serving_size > 0
    assert outage_update.staleness == 1

    for fault in STANDARD_FAULTS:
        update, confusion = results[fault][FAULT_DAY]
        final_update, _ = results[fault][-1]
        # The serving list survives every fault class ...
        assert update.serving_size > 0, fault
        # ... without sacrificing precision on the faulted day ...
        assert (
            1 - confusion.false_positive_rate_of_inferred()
            >= clean_precision - 0.05
        ), fault
        # ... and the operation recovers once the feed heals.
        assert final_update.action == "inferred", fault
        assert final_update.staleness == 0, fault

    # View-degrading faults are detected by the quality score; the
    # stale RIB degrades routing, not the feed, so it scores clean.
    for fault in ("outage", "truncate", "duplicate", "corrupt", "missample"):
        assert results[fault][FAULT_DAY][0].quality.score < 0.5, fault
    assert results["stale-rib"][FAULT_DAY][0].quality.score >= 0.5

"""Tests for envelope bounds, scenario scoring and the regression gate."""

import dataclasses

import numpy as np
import pytest

from repro.core.metatelescope import MetaTelescope
from repro.robustness import (
    Bounds,
    Envelope,
    EvaluationSettings,
    composition_fault_plan,
    evaluate_scenario,
    standard_catalog,
)
from repro.robustness.envelope import _run_paths, _score
from repro.world.builder import build_world
from repro.world.config import micro_config


class TestBounds:
    def test_two_sided_containment(self):
        bounds = Bounds(-0.1, 0.2)
        assert bounds.contains(0.0)
        assert bounds.contains(-0.1) and bounds.contains(0.2)
        assert not bounds.contains(-0.11)
        assert not bounds.contains(0.21)

    def test_open_sides(self):
        assert Bounds(None, 0.5).contains(-100.0)
        assert Bounds(0.5, None).contains(100.0)
        assert Bounds().contains(42.0)

    def test_describe(self):
        assert Bounds(-0.1, 0.2).describe() == "[-0.100, +0.200]"
        assert "inf" in Bounds().describe()


class TestEnvelope:
    def test_metrics_exclude_absent_miss_bound(self):
        assert "target_miss_rate" not in Envelope().metrics()
        assert "target_miss_rate" in Envelope(
            target_miss_rate=Bounds(0.9, 1.0)
        ).metrics()
        assert set(Envelope().metrics()) == {
            "fpr_delta", "fnr_delta", "coverage_delta"
        }


class TestScoring:
    def test_active_overrides_shrink_the_dark_denominator(self, world):
        """Flash-reactivated blocks leave the FNR denominator: dropping
        them is correct, not a miss."""
        dark = world.index.truly_dark_blocks()
        served = dark[: len(dark) // 2]
        overrides = dark[len(dark) // 2:][:10]
        plain = _score(served, world, "parallel", None, None)
        adjusted = _score(served, world, "parallel", overrides, None)
        assert adjusted.fnr < plain.fnr

    def test_target_miss_rate(self, world):
        dark = world.index.truly_dark_blocks()
        targets = dark[:10]
        all_served = _score(dark, world, "online", None, targets)
        none_served = _score(dark[10:], world, "online", None, targets)
        assert all_served.target_miss_rate == 0.0
        assert none_served.target_miss_rate == 1.0


class TestFaultComposition:
    def test_canonical_plan_is_order_deterministic(self):
        plan = composition_fault_plan(EvaluationSettings(days=3))
        names = [injector.name for injector in plan.ordered_injectors()]
        assert names == sorted(names)
        assert len(names) == 2


@pytest.fixture(scope="module")
def settings():
    return EvaluationSettings(days=3, workers=2)


@pytest.fixture(scope="module")
def baseline(settings):
    config = micro_config(7)
    scores, _ = _run_paths(build_world(config), settings, None, None, None, None)
    return scores


class TestPinnedMicroWorld:
    """The micro world's (serving, fpr, fnr, coverage) per path and its
    online health line, recorded at commit 5dd4f5d with the dense
    spoofing tolerance and duplicate scorer."""

    def test_clean_campaign(self, baseline):
        assert [
            (s.path, s.serving, s.fpr, s.fnr, s.coverage) for s in baseline
        ] == [
            ("parallel", 312, 0.0, 0.2553699284009546, 0.7395833333333334),
            ("online", 278, 0.0, 0.33651551312649164, 0.5729166666666666),
        ]

    def test_fault_composed_campaign(self):
        """Truncated and duplicated feeds mid-campaign: the duplicate
        score degrades the day and the carry policy quarantines."""
        scores, health = _run_paths(
            build_world(micro_config(7)),
            EvaluationSettings(days=3, compose_faults=True),
            None, None, None, None,
        )
        assert [
            (s.path, s.serving, s.fpr, s.fnr, s.coverage) for s in scores
        ] == [
            ("parallel", 318, 0.0, 0.24105011933174225, 0.7395833333333334),
            ("online", 201, 0.0, 0.5202863961813842, 0.1875),
        ]
        assert health == (
            "3 day(s) processed (1 degraded, 2 inferred); serving 201 "
            "prefixes, staleness 0 day(s), 207 quarantined"
        )


class TestRegressionGate:
    def test_healthy_pipeline_stays_in_envelope(self, settings, baseline):
        catalog = {s.name: s for s in standard_catalog(micro_config(7))}
        verdict = evaluate_scenario(
            catalog["padded-evasive"], baseline, settings
        )
        assert verdict.ok(), [c.describe() for c in verdict.violations()]
        by_path = {score.path: score for score in verdict.observed}
        assert set(by_path) == {"parallel", "online"}
        assert by_path["parallel"].target_miss_rate >= 0.9
        assert by_path["online"].target_miss_rate >= 0.9
        assert verdict.online_health.startswith("[padded-evasive]")

    def test_weakened_size_filter_trips_the_gate(
        self, settings, baseline, monkeypatch
    ):
        """The acceptance tooth: weaken the packet-size filter (both
        the 44-byte block average and the 48-byte per-IP slack) and the
        padded blocks stay served — the miss-rate lower bound fails on
        both engine paths."""

        for_world = MetaTelescope.for_world

        def weakened(world):
            telescope = for_world(world)
            telescope.config = dataclasses.replace(
                telescope.config, avg_size_threshold=68.0, ip_size_threshold=72.0
            )
            return telescope

        monkeypatch.setattr(MetaTelescope, "for_world", staticmethod(weakened))
        catalog = {s.name: s for s in standard_catalog(micro_config(7))}
        verdict = evaluate_scenario(
            catalog["padded-evasive"], baseline, settings
        )
        assert not verdict.ok()
        violated = {
            (check.path, check.metric) for check in verdict.violations()
        }
        assert ("parallel", "target_miss_rate") in violated
        assert ("online", "target_miss_rate") in violated

    def test_verdict_json_is_ci_consumable(self, settings, baseline):
        import json

        catalog = {s.name: s for s in standard_catalog(micro_config(7))}
        verdict = evaluate_scenario(
            catalog["padded-evasive"], baseline, settings
        )
        payload = json.loads(json.dumps(verdict.to_json()))
        assert payload["scenario"] == "padded-evasive"
        assert payload["ok"] is True
        assert {c["metric"] for c in payload["checks"]} == {
            "fpr_delta", "fnr_delta", "coverage_delta", "target_miss_rate"
        }


class TestServicePath:
    def test_service_path_scores_identically_to_online(self):
        """Publishing through the snapshot/service layer must not move
        a single metric: the served answers ARE the engine's answers."""
        service_settings = EvaluationSettings(
            days=3, workers=2, service_path=True
        )
        config = micro_config(7)
        scores, _ = _run_paths(
            build_world(config), service_settings, None, None, None, None
        )
        by_path = {score.path: score for score in scores}
        assert set(by_path) == {"parallel", "online", "service"}
        online, service = by_path["online"], by_path["service"]
        assert service.fpr == online.fpr
        assert service.fnr == online.fnr
        assert service.coverage == online.coverage

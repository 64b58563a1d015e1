"""Adversarial scenario catalog and expected-degradation envelopes.

The regression gate for "does the pipeline still degrade the way we
expect under attack": :mod:`repro.robustness.catalog` declares the
scenarios (who the adversary is, what they target, what they are
allowed to break), :mod:`repro.robustness.envelope` runs each one
through both engine paths and checks every metric against its bounds.
"""

from repro.robustness.catalog import (
    Scenario,
    ScenarioWorld,
    standard_catalog,
)
from repro.robustness.envelope import (
    Bounds,
    CatalogVerdict,
    EvaluationSettings,
    Envelope,
    MetricCheck,
    PathScore,
    SERVICE_PATH,
    ScenarioVerdict,
    composition_fault_plan,
    evaluate_catalog,
    evaluate_scenario,
)

__all__ = [
    "Bounds",
    "CatalogVerdict",
    "Envelope",
    "EvaluationSettings",
    "MetricCheck",
    "PathScore",
    "SERVICE_PATH",
    "Scenario",
    "ScenarioVerdict",
    "ScenarioWorld",
    "composition_fault_plan",
    "evaluate_catalog",
    "evaluate_scenario",
    "standard_catalog",
]

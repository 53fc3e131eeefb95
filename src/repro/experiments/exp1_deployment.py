"""Experiment 1 — deployment approaches (Figure 4, §5.2).

Runs the online, periodical, and continuous deployments on one
scenario and collects the two series Figure 4 plots per dataset:

* (a)/(c): cumulative prequential error over time,
* (b)/(d): cumulative deployment cost over time.

The paper's claims to reproduce in shape:

* both history-using approaches beat online on error;
* continuous matches (or slightly beats) periodical on error;
* periodical's cost jumps at each retraining and ends 6–15x above
  continuous;
* continuous costs only modestly more than online.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from repro.core.deployment.base import DeploymentResult
from repro.experiments.common import (
    Scenario,
    run_continuous,
    run_online,
    run_periodical,
)
from repro.obs.telemetry import Telemetry

APPROACHES = ("online", "periodical", "continuous")


def run_experiment1(
    scenario: Scenario,
    telemetry: Optional[Telemetry] = None,
) -> Dict[str, DeploymentResult]:
    """Run all three approaches on the scenario.

    ``telemetry`` (when given) instruments the *continuous* run — the
    paper's contribution and the interesting trace; the baselines
    stay untraced so their cost accounting is byte-identical with and
    without observability.
    """
    return {
        "online": run_online(scenario),
        "periodical": run_periodical(scenario),
        "continuous": run_continuous(scenario, telemetry=telemetry),
    }


def quality_series(
    results: Mapping[str, DeploymentResult],
) -> Dict[str, List[float]]:
    """Figure 4(a)/(c): cumulative error curves per approach."""
    return {
        name: list(result.error_history)
        for name, result in results.items()
    }


def cost_ratios(
    results: Mapping[str, DeploymentResult],
) -> Dict[str, float]:
    """Final-cost ratios relative to continuous (the headline claim)."""
    continuous = results["continuous"].total_cost
    return {
        name: result.total_cost / continuous
        for name, result in results.items()
    }

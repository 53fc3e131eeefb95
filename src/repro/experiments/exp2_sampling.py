"""Experiment 2 (part 2) — sampling strategies vs quality (Figure 6).

Runs the continuous deployment three times, identical except for the
sampling strategy feeding proactive training. The paper's findings to
reproduce in shape:

* on the drifting URL stream, time-based sampling yields the lowest
  average error (recent chunks reflect the current concept), with
  window-based second and uniform last;
* on the stationary Taxi stream, the three strategies tie.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

import numpy as np

from repro.core.deployment.base import DeploymentResult
from repro.experiments.common import Scenario, run_continuous
from repro.obs.telemetry import Telemetry

SAMPLERS = ("time", "window", "uniform")


def run_sampling_experiment(
    scenario: Scenario,
    window_fraction: float = 0.25,
    telemetry: Optional[Telemetry] = None,
) -> Dict[str, DeploymentResult]:
    """One continuous run per sampling strategy.

    The window sampler's active window defaults to a quarter of the
    stream (the paper's Experiment 3 uses half of the total chunks;
    a tighter window accentuates the recency effect for quality).
    ``telemetry`` (when given) instruments every run into one shared
    bundle; profile folding only uses durations, so the aggregate
    stays well-defined.
    """
    window_size = max(int(scenario.num_chunks * window_fraction), 1)
    results: Dict[str, DeploymentResult] = {}
    for sampler in SAMPLERS:
        adapted = scenario.with_continuous(
            sampler=sampler,
            window_size=window_size if sampler == "window" else None,
        )
        results[sampler] = run_continuous(adapted, telemetry=telemetry)
    return results


def average_errors(
    results: Mapping[str, DeploymentResult],
) -> Dict[str, float]:
    """Average cumulative error per strategy (the paper's deltas)."""
    return {
        name: float(np.mean(result.error_history))
        for name, result in results.items()
    }

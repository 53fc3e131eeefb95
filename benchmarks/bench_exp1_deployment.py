"""Experiment 1 — Figure 4 (a)–(d): deployment approaches.

Regenerates the four panels of Figure 4: cumulative prequential error
and cumulative deployment cost over time for the online, periodical,
and continuous deployments on the URL and Taxi scenarios.

Paper shapes asserted here:

* error: continuous <= periodical and continuous < online (average);
* cost: periodical ends several times (6–15x in the paper) above
  continuous; continuous only modestly above online.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import BENCH_SCALE, run_once
from repro.evaluation.report import format_series
from repro.experiments.common import (
    run_continuous,
    run_online,
    run_periodical,
    taxi_scenario,
    url_scenario,
)
from repro.experiments.exp1_deployment import cost_ratios

#: Results shared across the figure benchmarks of this module.
_RESULTS: dict = {}

_SCENARIOS = {
    "url": url_scenario(BENCH_SCALE),
    "taxi": taxi_scenario(BENCH_SCALE),
}
_RUNNERS = {
    "online": run_online,
    "periodical": run_periodical,
    "continuous": run_continuous,
}


@pytest.mark.parametrize("dataset", ["url", "taxi"])
@pytest.mark.parametrize(
    "approach", ["online", "periodical", "continuous"]
)
def test_run_deployment(benchmark, bench_record, dataset, approach):
    """Timed deployment runs (one per approach per dataset)."""
    scenario = _SCENARIOS[dataset]
    runner = _RUNNERS[approach]
    result = run_once(benchmark, lambda: runner(scenario))
    _RESULTS[(dataset, approach)] = result
    benchmark.extra_info["final_error"] = result.final_error
    benchmark.extra_info["total_cost"] = result.total_cost
    bench_record(
        f"exp1_{scenario.name.replace('-', '_')}_{approach}",
        scenario=scenario,
        cost={"total_cost": result.total_cost},
        quality={
            "final_error": result.final_error,
            "average_error": result.average_error,
        },
        count={
            "chunks": result.chunks_processed,
            **{f"n_{k}": v for k, v in result.counters.items()},
        },
    )


@pytest.mark.parametrize(
    ("figure", "dataset", "series"),
    [
        ("fig4a_url_quality", "url", "error"),
        ("fig4b_url_cost", "url", "cost"),
        ("fig4c_taxi_quality", "taxi", "error"),
        ("fig4d_taxi_cost", "taxi", "cost"),
    ],
)
def test_figure4(benchmark, report, figure, dataset, series):
    """Assemble and check one Figure 4 panel from the cached runs."""
    results = {
        name: _RESULTS[(dataset, name)]
        for name in ("online", "periodical", "continuous")
    }

    def render() -> str:
        lines = [f"Figure 4 panel: {figure} ({series} over chunks)"]
        for name, result in results.items():
            history = (
                result.error_history
                if series == "error"
                else result.cost_history
            )
            lines.append(format_series(name, history, points=12))
        if series == "cost":
            ratios = cost_ratios(results)
            lines.append(
                "final-cost ratio vs continuous: "
                + ", ".join(
                    f"{k}={v:.2f}x" for k, v in sorted(ratios.items())
                )
            )
        else:
            lines.append(
                "average error: "
                + ", ".join(
                    f"{k}={results[k].average_error:.4f}"
                    for k in sorted(results)
                )
            )
        return "\n".join(lines)

    text = benchmark(render)
    report(figure, text)

    if series == "error":
        # Shape: continuous matches periodical and beats online.
        assert (
            results["continuous"].average_error
            <= results["periodical"].average_error + 1e-3
        )
        assert (
            results["continuous"].average_error
            < results["online"].average_error
        )
    else:
        ratios = cost_ratios(results)
        assert ratios["periodical"] > 3.0
        assert ratios["online"] <= 1.0 + 1e-9
        # Continuous adds only a modest overhead over online.
        assert 1.0 / ratios["online"] < 2.0

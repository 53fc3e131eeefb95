"""Compare online, periodical, and continuous deployment (Experiment 1).

Runs the paper's three deployment approaches head-to-head on the
synthetic Taxi stream (regression, RMSLE) and prints the Figure 4-style
comparison: cumulative error and cumulative cost per approach, plus
the headline cost ratio.

Run:  python examples/compare_deployment_approaches.py
"""

from __future__ import annotations

import warnings

from repro import (
    ContinuousConfig,
    ContinuousDeployment,
    FullRetrainingDeployment,
    L2,
    LinearRegression,
    OnlineDeployment,
    PeriodicalConfig,
    RMSProp,
    ScheduleConfig,
    TaxiStreamGenerator,
    make_taxi_pipeline,
)
from repro.evaluation.report import (
    format_comparison_table,
    format_series,
    summarize_results,
)

NUM_CHUNKS = 150
ROWS = 60
NUM_FEATURES = 11


def fresh_parts():
    """Each approach gets its own pipeline/model/optimizer."""
    pipeline = make_taxi_pipeline()
    model = LinearRegression(
        num_features=NUM_FEATURES, regularizer=L2(1e-4)
    )
    return pipeline, model, RMSProp(learning_rate=0.05)


def make_generator() -> TaxiStreamGenerator:
    return TaxiStreamGenerator(
        num_chunks=NUM_CHUNKS, rows_per_chunk=ROWS, seed=3
    )


def main() -> None:
    warnings.simplefilter("ignore")

    deployments = {}

    pipeline, model, optimizer = fresh_parts()
    deployments["online"] = OnlineDeployment(
        pipeline, model, optimizer,
        metric="regression", online_batch_rows=1,
    )

    pipeline, model, optimizer = fresh_parts()
    deployments["periodical"] = FullRetrainingDeployment(
        pipeline, model, optimizer,
        config=PeriodicalConfig(
            retrain_every_chunks=30, max_epoch_iterations=150
        ),
        metric="regression",
        seed=3,
        online_batch_rows=1,
    )

    pipeline, model, optimizer = fresh_parts()
    deployments["continuous"] = ContinuousDeployment(
        pipeline, model, optimizer,
        config=ContinuousConfig(
            sample_size_chunks=20,
            schedule=ScheduleConfig(kind="static", interval_chunks=5),
            sampler="time",
            half_life=30,
            online_batch_rows=1,
        ),
        metric="regression",
        seed=3,
    )

    results = {}
    for name, deployment in deployments.items():
        print(f"running {name} deployment ...")
        generator = make_generator()
        deployment.initial_fit(
            generator.initial_data(1500),
            max_iterations=500,
            tolerance=1e-7,
        )
        results[name] = deployment.run(generator.stream())

    print()
    print("cumulative RMSLE over time (sampled):")
    for name, result in results.items():
        print(format_series(name, result.error_history, points=10))
    print()
    print("cumulative cost over time (sampled):")
    for name, result in results.items():
        print(format_series(name, result.cost_history, points=10,
                            float_format="{:.2f}"))
    print()
    print(format_comparison_table(
        summarize_results(results),
        columns=["approach", "final_error", "average_error",
                 "total_cost"],
    ))
    ratio = (
        results["periodical"].total_cost
        / results["continuous"].total_cost
    )
    print()
    print(f"periodical costs {ratio:.1f}x the continuous deployment "
          f"for the same (or worse) quality — the paper's headline.")


if __name__ == "__main__":
    main()

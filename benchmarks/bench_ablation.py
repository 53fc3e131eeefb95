"""Ablation benchmarks for the design choices DESIGN.md calls out.

* Warm starting for periodical retraining (§5.2 / TFX): cold restarts
  must cost more (statistics recomputation) — and the error after a
  cold retrain without accumulated optimizer state tends to be worse.
* Online SGD granularity: per-row online updates (the paper's online
  learning) vs one mini-batch step per chunk.
* Dynamic vs static scheduling of proactive training (formula 6).
* Proactive-training sample size: quality/cost knob of §3.2.2.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from benchmarks.conftest import BENCH_SCALE, run_once
from repro.core.config import ScheduleConfig
from repro.experiments.common import (
    run_continuous,
    run_periodical,
    url_scenario,
)

_URL = url_scenario(BENCH_SCALE)


def test_warm_start_ablation(benchmark, report, bench_record):
    def run():
        warm = run_periodical(_URL)
        cold_scenario = replace(
            _URL,
            periodical_config=replace(
                _URL.periodical_config, warm_start=False
            ),
        )
        cold = run_periodical(cold_scenario)
        return warm, cold

    warm, cold = run_once(benchmark, run)
    report(
        "ablation_warm_start",
        "Periodical retraining (URL): warm start vs cold\n"
        f"warm: cost={warm.total_cost:.2f} "
        f"avg_error={warm.average_error:.4f}\n"
        f"cold: cost={cold.total_cost:.2f} "
        f"avg_error={cold.average_error:.4f}",
    )
    # Cold restarts recompute pipeline statistics over all history.
    assert cold.total_cost > warm.total_cost
    bench_record(
        f"ablation_warm_start_{_URL.name.replace('-', '_')}",
        scenario=_URL,
        cost={
            "warm_total_cost": warm.total_cost,
            "cold_total_cost": cold.total_cost,
        },
        quality={
            "warm_avg_error": warm.average_error,
            "cold_avg_error": cold.average_error,
        },
    )


def test_online_granularity_ablation(benchmark, report):
    def run():
        per_row = run_continuous(_URL)
        per_chunk_scenario = replace(
            _URL,
            online_batch_rows=None,
            continuous_config=replace(
                _URL.continuous_config, online_batch_rows=None
            ),
        )
        per_chunk = run_continuous(per_chunk_scenario)
        return per_row, per_chunk

    per_row, per_chunk = run_once(benchmark, run)
    report(
        "ablation_online_granularity",
        "Continuous (URL): online update granularity\n"
        f"per-row  : avg_error={per_row.average_error:.4f} "
        f"cost={per_row.total_cost:.2f}\n"
        f"per-chunk: avg_error={per_chunk.average_error:.4f} "
        f"cost={per_chunk.total_cost:.2f}",
    )
    # Same data volume either way: cost must be almost identical.
    assert per_chunk.total_cost == pytest.approx(
        per_row.total_cost, rel=0.05
    )


def test_dynamic_scheduler_ablation(benchmark, report):
    def run():
        static = run_continuous(_URL)
        dynamic_scenario = _URL.with_continuous(
            schedule=ScheduleConfig(
                kind="dynamic", slack=1.2, initial_interval=0.05
            )
        )
        dynamic = run_continuous(dynamic_scenario)
        return static, dynamic

    static, dynamic = run_once(benchmark, run)
    report(
        "ablation_scheduler",
        "Continuous (URL): static vs dynamic scheduling\n"
        f"static : trainings={static.counters['proactive_trainings']} "
        f"avg_error={static.average_error:.4f} "
        f"cost={static.total_cost:.2f}\n"
        f"dynamic: trainings={dynamic.counters['proactive_trainings']} "
        f"avg_error={dynamic.average_error:.4f} "
        f"cost={dynamic.total_cost:.2f}",
    )
    assert dynamic.counters["proactive_trainings"] > 0


def test_threshold_retraining_ablation(benchmark, report):
    """Velox-style retrain-on-degradation vs fixed-period retraining.

    On the drifting URL stream, the threshold policy retrains only
    when the monitored error actually degrades, so it should spend
    less than the fixed 12-retraining schedule while staying in the
    same quality band.
    """
    from repro.core.deployment import FullRetrainingDeployment
    from repro.core.scheduler import DegradationTrigger

    def run():
        periodical = run_periodical(_URL)
        deployment = FullRetrainingDeployment(
            _URL.make_pipeline(),
            _URL.make_model(),
            _URL.make_optimizer(),
            trigger=DegradationTrigger(
                tolerance_ratio=0.10,
                window_chunks=20,
                cooldown_chunks=30,
                min_absolute_delta=0.01,
            ),
            config=_URL.periodical_config,
            metric=_URL.metric,
            seed=_URL.seed,
            online_batch_rows=_URL.online_batch_rows,
        )
        deployment.initial_fit(
            _URL.make_initial_data(),
            seed=_URL.seed,
            **_URL.initial_fit_kwargs,
        )
        threshold = deployment.run(_URL.make_stream())
        return periodical, threshold

    periodical, threshold = run_once(benchmark, run)
    report(
        "ablation_threshold_retraining",
        "Retraining policy (URL): fixed period vs error threshold\n"
        f"periodical: retrainings="
        f"{periodical.counters['retrainings']} "
        f"cost={periodical.total_cost:.2f} "
        f"avg_error={periodical.average_error:.4f}\n"
        f"threshold : retrainings="
        f"{threshold.counters['retrainings']} "
        f"cost={threshold.total_cost:.2f} "
        f"avg_error={threshold.average_error:.4f}",
    )
    # Retraining on demand must not retrain more than the fixed
    # schedule, and therefore must not cost more.
    assert (
        threshold.counters["retrainings"]
        <= periodical.counters["retrainings"]
    )
    assert threshold.total_cost <= periodical.total_cost * 1.05


def test_sample_size_ablation(benchmark, report):
    def run():
        results = {}
        for size in (20, 80, 160):
            scenario = _URL.with_continuous(sample_size_chunks=size)
            results[size] = run_continuous(scenario)
        return results

    results = run_once(benchmark, run)
    lines = ["Continuous (URL): proactive-training sample size"]
    for size, result in results.items():
        lines.append(
            f"s={size:<4} avg_error={result.average_error:.4f} "
            f"cost={result.total_cost:.2f}"
        )
    report("ablation_sample_size", "\n".join(lines))
    # Larger samples cost more (more gradient work per training).
    costs = [results[s].total_cost for s in (20, 80, 160)]
    assert costs[0] < costs[1] < costs[2]

"""Drift-detection extension bench (the paper's §7 future work).

On a stream with an abrupt concept shift, compares the plain
continuous deployment (sparse schedule) against the drift-aware
variant (one more training rule: Page–Hinkley detector + delayed
proactive-training burst over a fresh window). Checks that the
detector localises the shift and that the response does not cost more
than a handful of extra proactive trainings.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import run_once
from repro.core.config import ContinuousConfig, ScheduleConfig
from repro.core.deployment import ContinuousDeployment
from repro.core.platform import TrainingRule
from repro.data.sampling import WindowBasedSampler
from repro.datasets.drift import AbruptDrift
from repro.datasets.url import URLStreamGenerator, make_url_pipeline
from repro.driftdetect import DriftTrigger, PageHinkley
from repro.ml.models import LinearSVM
from repro.ml.optim import Adam
from repro.ml.regularizers import L2

NUM_CHUNKS = 200
SHIFT_AT = 100
HASH_DIM = 1024


def _generator() -> URLStreamGenerator:
    return URLStreamGenerator(
        num_chunks=NUM_CHUNKS,
        rows_per_chunk=50,
        base_features=400,
        new_features_per_chunk=0,
        drift=AbruptDrift(at_chunks=[SHIFT_AT], magnitude=0.9),
        label_noise=0.02,
        seed=11,
    )


def _config() -> ContinuousConfig:
    return ContinuousConfig(
        sample_size_chunks=20,
        schedule=ScheduleConfig(kind="static", interval_chunks=25),
        sampler="window",
        window_size=25,
    )


def _deploy(rules=()):
    deployment = ContinuousDeployment(
        make_url_pipeline(hash_features=HASH_DIM),
        LinearSVM(num_features=HASH_DIM, regularizer=L2(1e-3)),
        Adam(0.05),
        config=_config(),
        metric="classification",
        seed=11,
        rules=rules,
    )
    generator = _generator()
    deployment.initial_fit(
        generator.initial_data(800), max_iterations=400, tolerance=1e-6
    )
    return deployment.run(generator.stream())


def test_drift_response(benchmark, report, bench_record):
    def run():
        plain = _deploy()
        aware = DriftTrigger(
            PageHinkley(
                delta=0.05, threshold=10.0, minimum_observations=50
            ),
            delay_chunks=4,
        )
        aware_result = _deploy(
            rules=[TrainingRule(aware, WindowBasedSampler(5), repeats=5)]
        )
        return plain, aware_result, aware

    plain, aware_result, aware = run_once(benchmark, run)

    report(
        "drift_response",
        f"Abrupt shift at chunk {SHIFT_AT} of {NUM_CHUNKS}\n"
        f"detections: {aware.drifts_detected} at "
        f"chunks {aware.drift_chunks}\n"
        f"proactive trainings: scheduled="
        f"{plain.counters['proactive_trainings']}, drift-aware="
        f"{aware_result.counters['proactive_trainings']}\n"
        f"final error: scheduled={plain.final_error:.4f}, "
        f"drift-aware={aware_result.final_error:.4f}",
    )

    # The detector localises the shift: first alarm within 10 chunks.
    assert aware.drift_chunks, "no drift detected"
    assert SHIFT_AT <= aware.drift_chunks[0] <= SHIFT_AT + 10
    # The response is bounded: a few bursts, not constant alarms.
    assert aware.drifts_detected <= 4
    # And it does not hurt quality.
    assert aware_result.final_error <= plain.final_error + 0.005

    bench_record(
        "drift_response",
        cost={
            "plain_total_cost": plain.total_cost,
            "aware_total_cost": aware_result.total_cost,
        },
        quality={
            "plain_final_error": plain.final_error,
            "aware_final_error": aware_result.final_error,
        },
        count={
            "drifts_detected": aware.drifts_detected,
            "aware_proactive_trainings": aware_result.counters[
                "proactive_trainings"
            ],
        },
        seed=11,
        params={
            "num_chunks": NUM_CHUNKS,
            "shift_at": SHIFT_AT,
            "hash_dim": HASH_DIM,
        },
    )

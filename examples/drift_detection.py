"""Native drift detection (the paper's §7 future work, implemented).

Deploys the same model twice on a stream with an *abrupt* concept
shift halfway through:

1. plain continuous deployment — proactive training on its regular
   schedule only;
2. drift-aware continuous deployment — the same deployment with one
   more training rule: a Page–Hinkley detector watches the prequential
   errors and, shortly after it signals the shift, fires a burst of
   proactive trainings on the newest chunks.

The drift-aware variant recovers faster because it reacts to the
change instead of waiting for the next scheduled training.

Run:  python examples/drift_detection.py
"""

from __future__ import annotations

import warnings

from repro import (
    Adam,
    ContinuousConfig,
    ContinuousDeployment,
    L2,
    LinearSVM,
    ScheduleConfig,
    TrainingRule,
    URLStreamGenerator,
    WindowBasedSampler,
    make_url_pipeline,
)
from repro.datasets.drift import AbruptDrift
from repro.driftdetect import DriftTrigger, PageHinkley
from repro.evaluation.report import format_series

NUM_CHUNKS = 120
SHIFT_AT = 60
HASH_DIM = 512


def make_generator() -> URLStreamGenerator:
    return URLStreamGenerator(
        num_chunks=NUM_CHUNKS,
        rows_per_chunk=50,
        base_features=300,
        new_features_per_chunk=0,
        drift=AbruptDrift(at_chunks=[SHIFT_AT], magnitude=0.9),
        label_noise=0.02,
        seed=11,
    )


def make_config() -> ContinuousConfig:
    return ContinuousConfig(
        sample_size_chunks=16,
        # Deliberately sparse schedule so the drift response shows.
        schedule=ScheduleConfig(kind="static", interval_chunks=20),
        sampler="window",
        window_size=20,
    )


def drift_rule() -> TrainingRule:
    """Four chunks after a detected drift, five proactive trainings
    sampled from the five newest chunks."""
    detector = PageHinkley(
        delta=0.05, threshold=10.0, minimum_observations=50
    )
    return TrainingRule(
        DriftTrigger(detector, delay_chunks=4),
        sampler=WindowBasedSampler(5),
        repeats=5,
    )


def deploy(rules=()):
    pipeline = make_url_pipeline(hash_features=HASH_DIM)
    model = LinearSVM(num_features=HASH_DIM, regularizer=L2(1e-3))
    deployment = ContinuousDeployment(
        pipeline, model, Adam(0.05),
        config=make_config(),
        metric="classification",
        seed=11,
        rules=rules,
    )
    generator = make_generator()
    deployment.initial_fit(
        generator.initial_data(800), max_iterations=400,
        tolerance=1e-6,
    )
    return deployment.run(generator.stream())


def main() -> None:
    warnings.simplefilter("ignore")

    print(f"stream: {NUM_CHUNKS} chunks; abrupt concept shift at "
          f"chunk {SHIFT_AT}")
    plain_result = deploy()
    rule = drift_rule()
    aware_result = deploy(rules=[rule])

    print()
    print("cumulative error over time (sampled):")
    print(format_series("scheduled", plain_result.error_history))
    print(format_series("drift-aware", aware_result.error_history))
    print()
    print(f"drifts detected      : "
          f"{rule.trigger.drifts_detected} "
          f"(at chunks {rule.trigger.drift_chunks})")
    print(f"proactive trainings  : scheduled="
          f"{plain_result.counters['proactive_trainings']}, "
          f"drift-aware="
          f"{aware_result.counters['proactive_trainings']}")
    print(f"final error          : scheduled="
          f"{plain_result.final_error:.4f}, drift-aware="
          f"{aware_result.final_error:.4f}")


if __name__ == "__main__":
    main()

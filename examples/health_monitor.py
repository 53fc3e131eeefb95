"""Live health monitoring of a drifting deployment.

Attaches a :class:`~repro.obs.monitor.HealthMonitor` to a drift-aware
continuous deployment running over a stream with an abrupt concept
shift. The monitor consumes the run's telemetry live: the Page–Hinkley
detector's ``drift.signal`` event breaches the stock
``drift-detected`` rule, an incident opens, fires, and — once the
burst retraining pulls the error back down and the signal goes quiet —
resolves. The resulting ``health.json`` timeline is deterministic:
re-running this script produces a byte-identical file.

The script exits non-zero unless a drift alert actually fired *and*
resolved, which is how CI uses it as a smoke test.

Run:  python examples/health_monitor.py
"""

from __future__ import annotations

import sys
import tempfile
import warnings
from pathlib import Path

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
from repro.obs import Telemetry, format_timeline

NUM_CHUNKS = 80
SHIFT_AT = 40
HASH_DIM = 256


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


def deploy(telemetry: Telemetry, trigger: DriftTrigger):
    deployment = ContinuousDeployment(
        make_url_pipeline(hash_features=HASH_DIM),
        LinearSVM(num_features=HASH_DIM, regularizer=L2(1e-3)),
        Adam(0.05),
        config=ContinuousConfig(
            sample_size_chunks=16,
            schedule=ScheduleConfig(kind="static", interval_chunks=20),
            sampler="window",
            window_size=20,
        ),
        metric="classification",
        seed=11,
        telemetry=telemetry,
        # The drift response: five proactive trainings on the five
        # newest chunks, four chunks after the detector signals.
        rules=[TrainingRule(trigger, WindowBasedSampler(5), repeats=5)],
    )
    generator = make_generator()
    deployment.initial_fit(
        generator.initial_data(800), max_iterations=400, tolerance=1e-6
    )
    return deployment.run(generator.stream())


def main() -> int:
    warnings.simplefilter("ignore")

    print(
        f"stream: {NUM_CHUNKS} chunks; abrupt concept shift at "
        f"chunk {SHIFT_AT}; health monitor attached"
    )
    telemetry = Telemetry()
    monitor = telemetry.attach_monitor()
    trigger = DriftTrigger(
        PageHinkley(delta=0.05, threshold=10.0, minimum_observations=50),
        delay_chunks=4,
        telemetry=telemetry,
    )
    result = deploy(telemetry, trigger)
    telemetry.close()

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "health.json"
        payload = monitor.write_health(path)

    print()
    print(format_timeline(payload))
    print()
    print(f"final error      : {result.final_error:.4f}")
    print(f"drifts detected  : {trigger.drifts_detected}")

    drift_incidents = [
        incident
        for incident in payload["incidents"]
        if incident["rule"] == "drift-detected"
    ]
    fired = [i for i in drift_incidents if i["fired_at"] is not None]
    resolved = [i for i in fired if i["state"] == "resolved"]
    if not fired:
        print("FAIL: no drift alert fired", file=sys.stderr)
        return 1
    if not resolved:
        print("FAIL: drift alert never resolved", file=sys.stderr)
        return 1
    print(
        f"drift alert fired at t={fired[0]['fired_at']:.4f} and "
        f"resolved at t={resolved[0]['resolved_at']:.4f} "
        f"(virtual cost units)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

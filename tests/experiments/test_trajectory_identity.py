"""End-to-end trajectory identity of the online update.

Every approach trains through ``PipelineManager.online_step`` — per
row in both scenarios (``online_batch_rows=1``) — so a change to the
step's kernels must leave each run's trajectory where it was, bit for
bit: the final weights, the cost clock, the error curve and, with
telemetry attached, the ``engine.train_step`` spans' total ``steps``
(one a span where a span carries none) and total ``values`` — sums,
so that a span per step and a span per chunk read the same.

``trajectory_digests.json`` was recorded by running this file as a
script (``measure`` uses nothing newer) on the commit *before* the
row-range kernels (PR 14, 856e086) and, for ``values`` alone — then a
digest of the per-step list, now their sum — on the commit before the
online update became one span (PR 22, 45f0a4b); the other five
entries of every run came out as recorded. The taxi digests go through
BLAS (``X.T @ dloss``), so they are pinned to the numpy build of the
test image; on another build, re-record from an unchanged checkout:
``PYTHONPATH=src python tests/experiments/test_trajectory_identity.py``.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.common import (
    APPROACHES,
    make_deployment,
    taxi_scenario,
    url_scenario,
)
from repro.obs import names
from repro.obs.telemetry import Telemetry

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.exceptions.ConvergenceWarning"
)

GOLDEN = Path(__file__).with_name("trajectory_digests.json")
SCENARIOS = {"url": url_scenario, "taxi": taxi_scenario}


def _sha(array, dtype) -> str:
    return hashlib.sha256(np.asarray(array, dtype=dtype).tobytes()).hexdigest()


def measure(dataset: str, approach: str) -> dict:
    scenario = SCENARIOS[dataset]("test")
    telemetry = Telemetry(ring_capacity=1 << 20)
    deployment = make_deployment(scenario, approach, telemetry=telemetry)
    result = scenario.fit(deployment).run(scenario.make_stream())
    steps = [
        event
        for event in telemetry.events
        if event.get("name") == names.ENGINE_TRAIN_STEP
    ]
    return {
        "weights": _sha(deployment.model.weights, np.float64),
        "intercept": repr(float(deployment.model.intercept)),
        "total_cost": repr(result.total_cost),
        "errors": _sha(result.error_history, np.float64),
        "train_steps": sum(e["attrs"].get("steps", 1) for e in steps),
        "values": sum(e["attrs"]["values"] for e in steps),
    }


@pytest.mark.parametrize("approach", APPROACHES)
@pytest.mark.parametrize("dataset", sorted(SCENARIOS))
def test_trajectory_matches_parent_commit(dataset, approach):
    golden = json.loads(GOLDEN.read_text())[f"{dataset}/{approach}"]
    assert measure(dataset, approach) == golden


if __name__ == "__main__":
    json.dump(
        {
            f"{dataset}/{approach}": measure(dataset, approach)
            for dataset in SCENARIOS
            for approach in APPROACHES
        },
        sys.stdout,
        indent=1,
    )
    print()

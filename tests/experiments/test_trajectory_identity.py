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

A run's bytes must not depend on ``PYTHONHASHSEED`` either: one pytest
process draws one hash seed, so the continuous approach is re-measured
in a child process under each of three fixed seeds.
"""

import hashlib
import json
import os
import subprocess
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
REPO_ROOT = Path(__file__).resolve().parents[2]
HASH_SEEDS = [
    int(seed) for seed in np.random.default_rng(32).integers(0, 2**32, 3)
]


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


@pytest.mark.parametrize("hash_seed", HASH_SEEDS)
def test_trajectory_ignores_the_hash_seed(hash_seed):
    env = dict(
        os.environ,
        PYTHONHASHSEED=str(hash_seed),
        PYTHONPATH=os.pathsep.join([str(REPO_ROOT / "src"), str(REPO_ROOT)]),
    )
    script = (
        "import json\n"
        "from tests.experiments.test_trajectory_identity import measure\n"
        "print(json.dumps({d: measure(d, 'continuous') "
        "for d in ('url', 'taxi')}))\n"
    )
    child = subprocess.run(
        [sys.executable, "-c", script],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    replay = (
        f"replay: PYTHONPATH=src python -m pytest "
        f"{Path(__file__).relative_to(REPO_ROOT)} "
        f"-k 'hash_seed and {hash_seed}'"
    )
    assert child.returncode == 0, (
        f"PYTHONHASHSEED={hash_seed}: child failed\n{child.stderr}\n{replay}"
    )
    golden = json.loads(GOLDEN.read_text())
    for dataset, measured in json.loads(child.stdout).items():
        assert measured == golden[f"{dataset}/continuous"], (
            f"PYTHONHASHSEED={hash_seed}: {dataset}/continuous moved\n{replay}"
        )


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

"""Checkpointing overhead guard.

Checkpointing buys crash recovery with writes on the deployment's hot
loop. Two separable costs exist:

* **Payload spill** — each raw/feature chunk payload is written to the
  checkpoint's ``chunks/`` area exactly once (append-only, content-
  immutable). This cost is *cadence-independent*: it is the price of a
  durable materialization cache, paid per chunk regardless of how
  often checkpoints are cut.
* **Per-checkpoint state capture** — pickling the artifact bundle and
  component state dicts and landing the envelope + refs sidecar
  atomically. This is the *cadence-dependent* overhead the cadence
  knob controls.

Following the projection pattern of ``bench_obs_overhead``, this
benchmark measures the steady-state per-checkpoint write cost (all
payloads already spilled — the state every checkpoint after the first
is in) on a bench-scale deployment, projects it onto the default
cadence, and asserts the projection stays under 5% of the per-chunk
processing baseline. A test-scale run additionally checks the
zero-distortion contract: checkpointing never changes what the
deployment computes.
"""

from __future__ import annotations

import itertools
import tempfile
import time

from benchmarks.conftest import BENCH_SCALE, run_once
from repro.experiments.common import make_deployment, url_scenario
from repro.persistence import DeploymentBundle
from repro.reliability import CheckpointConfig

#: Maximum tolerated cadence-dependent overhead at the default cadence.
MAX_OVERHEAD_FRACTION = 0.05

#: The default production cadence (chunks between checkpoints).
CADENCE = 10

#: Bench-scale stream prefix used for the timing baseline.
PREFIX_CHUNKS = 60

#: Steady-state checkpoint writes averaged by the microbenchmark.
WRITE_SAMPLES = 20


def _fitted(scenario, checkpoint=None):
    deployment = make_deployment(
        scenario, "continuous", checkpoint=checkpoint
    )
    deployment.initial_fit(
        scenario.make_initial_data(),
        seed=scenario.seed,
        **scenario.initial_fit_kwargs,
    )
    return deployment


def test_checkpoint_overhead(benchmark, report, bench_record):
    bench = url_scenario(BENCH_SCALE)

    # Work baseline: uncheckpointed per-chunk wall time.
    baseline = _fitted(bench)
    started = time.perf_counter()
    baseline.run(itertools.islice(bench.make_stream(), PREFIX_CHUNKS))
    per_chunk = (time.perf_counter() - started) / PREFIX_CHUNKS

    def steady_state_write_seconds() -> float:
        """Average cost of one checkpoint once payloads are spilled."""
        with tempfile.TemporaryDirectory() as root:
            config = CheckpointConfig(
                directory=root, cadence_chunks=CADENCE, keep=3
            )
            deployment = _fitted(bench, checkpoint=config)
            deployment.run(
                itertools.islice(bench.make_stream(), PREFIX_CHUNKS)
            )
            manager = deployment.platform.manager

            def write() -> None:
                # What the loop writes every CADENCE chunks, minus its
                # two short history lists: bundle, component state
                # dicts, telemetry state and the storage manifest.
                deployment.reliability.write(
                    PREFIX_CHUNKS,
                    deployment.approach,
                    DeploymentBundle(
                        pipeline=manager.pipeline,
                        model=manager.model,
                        optimizer=manager.optimizer,
                    ),
                    {"deployment": deployment.state_dict()},
                    storage=deployment.platform.data_manager.storage,
                )

            write()
            started = time.perf_counter()
            for _ in range(WRITE_SAMPLES):
                write()
            return (time.perf_counter() - started) / WRITE_SAMPLES

    per_checkpoint = run_once(benchmark, steady_state_write_seconds)
    projected = per_checkpoint / (CADENCE * per_chunk)

    # Zero distortion, checked where runs are cheap (test scale).
    test = url_scenario("test")
    unchecked = _fitted(test).run(test.make_stream())
    with tempfile.TemporaryDirectory() as root:
        config = CheckpointConfig(
            directory=root, cadence_chunks=CADENCE, keep=3
        )
        checked = _fitted(test, checkpoint=config).run(
            test.make_stream()
        )

    report(
        "checkpoint_overhead",
        "\n".join(
            [
                f"checkpoint overhead at default cadence={CADENCE}",
                f"per-chunk baseline (bench scale): "
                f"{per_chunk * 1e3:.2f} ms",
                f"steady-state checkpoint write: "
                f"{per_checkpoint * 1e3:.2f} ms",
                f"projected overhead: {projected:.2%} of processing "
                f"(budget {MAX_OVERHEAD_FRACTION:.0%})",
                f"zero distortion (test scale): "
                f"{checked.error_history == unchecked.error_history}",
            ]
        ),
    )

    assert checked.error_history == unchecked.error_history
    assert checked.cost_history == unchecked.cost_history
    assert checked.counters == unchecked.counters
    assert projected < MAX_OVERHEAD_FRACTION

    bench_record(
        f"checkpoint_overhead_{bench.name.replace('-', '_')}",
        scenario=bench,
        count={
            "zero_distortion": float(
                checked.error_history == unchecked.error_history
            ),
        },
        wall={
            "per_chunk_s": per_chunk,
            "per_checkpoint_s": per_checkpoint,
        },
        params={
            "cadence": CADENCE,
            "prefix_chunks": PREFIX_CHUNKS,
            "write_samples": WRITE_SAMPLES,
        },
    )

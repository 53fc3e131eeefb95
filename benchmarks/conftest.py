"""Shared infrastructure for the benchmark suite.

Every benchmark that regenerates a paper artifact prints the same
rows/series the paper reports. Output goes both to the terminal
(bypassing pytest's capture, so ``pytest benchmarks/ --benchmark-only``
shows it) and to ``benchmarks/results/<name>.txt`` for later reading.

The deployment runs are expensive, so results are cached at session
scope and shared between the quality-figure and cost-figure benchmarks
of the same experiment.

Three environment knobs parameterize a suite run:

* ``REPRO_BENCH_SCALE`` — scenario scale the bench modules build
  (``bench`` by default; ``test`` gives the seconds-long miniatures,
  which is what the CI perf-smoke job runs);
* ``REPRO_BENCH_STORE`` — directory of ``BENCH_<name>.json`` baseline
  trajectories the :func:`bench_record` fixture appends to (default:
  ``benchmarks/baselines``, the committed store);
* ``REPRO_BENCH_CHECK`` (:data:`BENCH_CHECK`; ``make bench-check`` and
  the smokes set it) — ``bench_record`` gates the fresh record against
  the store instead of appending it.

Each benchmark condenses its run into a schema-versioned record via
``bench_record`` — headline metrics on the deterministic virtual clock
(cost, quality, counts), the RNG seed and scenario knobs needed to
reproduce the run from the JSON alone, the git SHA, and the
environment fingerprint. The fixture is the only code that appends to
or gates a trajectory; a failing gate prints the record's seed and
params and the one command that reruns just that bench in check mode.
No record carries wall-clock: a bench may time two paths in one
process and assert on their ratio; speed itself is
``benchmarks/e2e``.
"""

from __future__ import annotations

import os
import shlex
import warnings
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"

#: Scenario scale every bench module builds its ``_SCENARIOS`` at.
BENCH_SCALE = os.environ.get("REPRO_BENCH_SCALE", "bench")

#: Baseline store the ``bench_record`` fixture appends to.
BASELINE_DIR = Path(
    os.environ.get(
        "REPRO_BENCH_STORE", str(Path(__file__).parent / "baselines")
    )
)

#: Gate each record against the store instead of appending it.
BENCH_CHECK = bool(os.environ.get("REPRO_BENCH_CHECK"))

# Deployment-scale runs emit ConvergenceWarning by design (retraining
# at an iteration cap); keep the bench output readable.
warnings.filterwarnings("ignore", message="SGD stopped at")


def scenario_params(scenario) -> dict:
    """The knobs that reproduce a scenario run from the record alone."""
    return {
        "scenario": scenario.name,
        "scale": BENCH_SCALE,
        "seed": scenario.seed,
        "num_chunks": scenario.num_chunks,
        "online_batch_rows": scenario.online_batch_rows,
    }


@pytest.fixture(scope="session")
def emit():
    """Return a reporter: emit(name, text) prints and persists."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _emit(name: str, text: str) -> None:
        banner = f"\n=== {name} ===\n{text}\n"
        print(banner)
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")

    return _emit


@pytest.fixture
def report(capsys, emit):
    """Per-test reporter that bypasses pytest's output capture."""

    def _report(name: str, text: str) -> None:
        with capsys.disabled():
            emit(name, text)

    return _report


def replay_command(nodeid: str) -> str:
    """The one line that reruns bench ``nodeid`` in check mode."""
    env = ["REPRO_BENCH_CHECK=1", f"REPRO_BENCH_SCALE={BENCH_SCALE}"]
    if "REPRO_BENCH_STORE" in os.environ:
        env.append(f"REPRO_BENCH_STORE={shlex.quote(str(BASELINE_DIR))}")
    return (
        f"{' '.join(env)} PYTHONPATH=src python -m pytest "
        f"{shlex.quote(nodeid)} --benchmark-only -q"
    )


@pytest.fixture
def bench_record(request, emit):
    """Append one benchmark's record to its baseline trajectory — or,
    under :data:`BENCH_CHECK`, gate it against that trajectory
    (exact match, ``results/<name>_gate.txt``) and fail on a regression.

    Usage::

        bench_record(
            "exp1_url_bench_continuous",
            scenario=scenario,
            cost={"total_cost": result.total_cost},
            quality={"final_error": result.final_error},
            count={"chunks": result.chunks_processed},
        )

    ``cost``/``quality``/``count`` metrics are virtual-clock numbers,
    gated by exact match against the trajectory's latest record. The
    record always carries the RNG seed and scenario knobs (via
    ``scenario`` or explicit ``seed``/``params``), so a trajectory
    entry is reproducible from the JSON alone, and a failing gate
    names both plus the command that replays it.
    """
    from repro.obs import (
        BaselineStore,
        MetricValue,
        check_record,
        format_report,
        make_record,
    )

    store = BaselineStore(BASELINE_DIR)
    repo_root = Path(__file__).parent.parent

    def _record(
        name: str,
        scenario=None,
        cost=None,
        quality=None,
        count=None,
        seed=None,
        params=None,
        profile_digest=None,
    ):
        metrics = {}
        for kind, group in (
            ("cost", cost),
            ("quality", quality),
            ("count", count),
        ):
            for key, value in (group or {}).items():
                metrics[key] = MetricValue(float(value), kind)
        merged = dict(params or {})
        if scenario is not None:
            for key, value in scenario_params(scenario).items():
                merged.setdefault(key, value)
            if seed is None:
                seed = scenario.seed
        record = make_record(
            name=name,
            metrics=metrics,
            seed=seed,
            params=merged,
            profile_digest=profile_digest,
            repo_root=repo_root,
        )
        knobs = ", ".join(
            f"{key}={value}" for key, value in sorted(merged.items())
        )
        if BENCH_CHECK:
            verdict = check_record(record, store.load(name))
            text = format_report(verdict)
            emit(f"{name}_gate", text)
            assert verdict.ok, (
                f"{name} regressed against {store.path_for(name)} "
                f"(seed={record.seed} [{knobs}]):\n{text}\n"
                f"replay: {replay_command(request.node.nodeid)}"
            )
            return record
        path = store.append(record)
        print(
            f"\nBENCH record {name}: seed={record.seed} "
            f"[{knobs}] -> {path}"
        )
        return record

    return _record


def run_once(benchmark, function):
    """Benchmark ``function`` with exactly one timed execution.

    Deployment runs are minutes-scale and deterministic; repeated
    rounds would only burn time.
    """
    return benchmark.pedantic(function, rounds=1, iterations=1)

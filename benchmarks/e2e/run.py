"""Run the end-to-end benchmark.

One workload, in this process (what ``BENCHMARK.json``'s command runs)::

    python3 benchmarks/e2e/run.py --workload url_continuous --seed 7 \
        --seconds 10 --trace 0

All four, each in a fresh subprocess, one after another::

    PYTHONPATH=src python -m benchmarks.e2e.run --all --out DIR

The loop is closed, with one client: the prequential replay hands the
deployment its next chunk only when the previous one is done, so
``rows_per_s`` is the sustainable rate. See ``README.md``.
"""

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

# One thread, fixed before numpy loads its BLAS.
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

ROOT = Path(__file__).resolve().parents[2]
if not __package__:
    # Run as a script: sys.path[0] is this directory, whose trace.py
    # would shadow the standard library's; import through the root.
    sys.path[0] = str(ROOT)

import numpy as np  # noqa: E402

from benchmarks.e2e.compare import spread  # noqa: E402
from benchmarks.e2e.report import stack_ratio  # noqa: E402
from benchmarks.e2e.speed import (  # noqa: E402
    Replay,
    SpeedProbe,
    calibrate,
    speed_factors,
)
from benchmarks.e2e.trace import (  # noqa: E402
    OBSERVE,
    PREDICT,
    SpanRecorder,
    by_name,
    instrument,
    resolve,
    write_jsonl,
)
from benchmarks.e2e.workloads import WORKLOADS, Workload  # noqa: E402
from repro.exceptions import ConvergenceWarning  # noqa: E402

OUTPUT_KEYS = (
    "chunks_processed",
    "total_cost",
    "final_error",
    "proactive_trainings",
    "chunks_sampled",
    "chunks_rematerialized",
)
#: Span names reported as total seconds; every other ``_s`` is self time.
TOTAL_SECONDS = (PREDICT, OBSERVE, "data.sample", "reliability.checkpoint_write")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class CallTimer:
    """The untraced repeats' only instrumentation besides the replay:
    a start/end pair around ``platform.predict`` and
    ``platform.observe``, whose return value tells whether a proactive
    training fired."""

    def __init__(self, platform) -> None:
        self.predict_s: List[float] = []
        self.observe_s: List[float] = []
        self.fired: List[bool] = []
        predict, observe = platform.predict, platform.observe

        def timed_predict(table):
            start = perf_counter()
            answer = predict(table)
            self.predict_s.append(perf_counter() - start)
            return answer

        def timed_observe(table):
            start = perf_counter()
            outcome = observe(table)
            self.observe_s.append(perf_counter() - start)
            self.fired.append(outcome is not None)
            return outcome

        platform.predict = timed_predict
        platform.observe = timed_observe


class Repeat:
    """One construct -> initial_fit -> run, and what it measured.

    Times are at reference speed (see ``speed.py``) unless named raw.
    """

    def __init__(
        self,
        workload: Workload,
        scenario,
        initial: list,
        stream: list,
        run_dir: Path,
        probe: SpeedProbe,
        traced: bool = False,
    ) -> None:
        run_dir.mkdir(parents=True)
        self.run_dir = run_dir
        self.recorder = SpanRecorder() if traced else None
        start = perf_counter()
        deployment = workload.deploy(scenario, run_dir)
        if traced:
            instrument(deployment, self.recorder)
        deployment.initial_fit(
            initial, seed=scenario.seed, **scenario.initial_fit_kwargs
        )
        raw_fit_s = perf_counter() - start
        replay = Replay(stream, probe)
        if traced:
            # Kept for its counters; an untraced one is dropped so
            # repeats do not add up in peak_rss_mb.
            self.deployment = deployment
            self.fit_spans = len(self.recorder)
        else:
            calls = CallTimer(deployment.platform)
        result = deployment.run(replay)
        deployment.telemetry.close()

        self.factors = replay.factors(summed=False)
        summed = replay.factors(summed=True)
        self.raw_run_s = float(replay.chunk_s.sum())
        self.chunk_s = replay.chunk_s * self.factors
        self.run_s = float(np.dot(replay.chunk_s, summed))
        # The first readings of the run come right after the fit.
        self.fit_s = raw_fit_s * summed[0]
        if traced:
            self.spans = resolve(self.recorder.spans, summed)
        else:
            fired = np.array(calls.fired)
            observe_s = calls.observe_s * self.factors
            self.predict_s = calls.predict_s * self.factors
            self.observe_s = observe_s[~fired]
            self.proactive_s = observe_s[fired]
        self.outputs = {
            "chunks_processed": result.chunks_processed,
            "total_cost": result.total_cost,
            "final_error": result.final_error,
            **{key: result.counters[key] for key in OUTPUT_KEYS[3:]},
        }


def check_outputs(
    outputs: dict, chunks: int, first: Optional[dict], golden: Optional[dict]
) -> List[str]:
    """Why this repeat's outputs are wrong; empty when they are right."""
    problems = []
    if outputs["chunks_processed"] != chunks:
        problems.append(
            f"processed {outputs['chunks_processed']} of {chunks} chunks"
        )
    for key in ("total_cost", "final_error"):
        if not math.isfinite(outputs[key]):
            problems.append(f"{key} is {outputs[key]}")
    if first is not None and outputs != first:
        problems.append(f"differs from the first repeat: {outputs} != {first}")
    if golden is not None:
        for key in OUTPUT_KEYS:
            close = (
                math.isclose(outputs[key], golden[key], rel_tol=1e-9)
                if isinstance(golden[key], float)
                else outputs[key] == golden[key]
            )
            if not close:
                problems.append(
                    f"{key} is {outputs[key]!r}, expected {golden[key]!r}"
                )
    return problems


def percentile(samples: List[float], q: float) -> float:
    return float(np.percentile(samples, q))


def end_to_end(repeats: List[Repeat], rows: int, generate_s: float) -> dict:
    """Values, per-repeat values and sample counts of the six metrics."""
    pooled = {
        name: np.concatenate([getattr(r, f"{name}_s") for r in repeats]) * 1e3
        for name in ("predict", "observe", "proactive")
    }
    per_repeat = {
        "rows_per_s": [rows / r.run_s for r in repeats],
        "predict_ms_p50": [percentile(r.predict_s, 50) * 1e3 for r in repeats],
        "observe_ms_p50": [percentile(r.observe_s, 50) * 1e3 for r in repeats],
        "proactive_ms_p50": [
            percentile(r.proactive_s, 50) * 1e3 for r in repeats
        ],
        "setup_s": [generate_s + r.fit_s for r in repeats],
    }
    values = {
        "rows_per_s": statistics.median(per_repeat["rows_per_s"]),
        "predict_ms_p50": percentile(pooled["predict"], 50),
        "observe_ms_p50": percentile(pooled["observe"], 50),
        "proactive_ms_p50": percentile(pooled["proactive"], 50),
        "setup_s": statistics.median(per_repeat["setup_s"]),
        # Read before the traced repeat fills memory with spans.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    samples = {
        "rows_per_s": len(repeats),
        "predict_ms_p50": len(pooled["predict"]),
        "observe_ms_p50": len(pooled["observe"]),
        "proactive_ms_p50": len(pooled["proactive"]),
        "setup_s": len(repeats),
        "peak_rss_mb": 1,
    }
    return {"values": values, "per_repeat": per_repeat, "samples": samples}


def directory_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def per_layer(
    traced: Repeat, untraced: List[Repeat], rows: int, generate_s: float
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per-layer metrics of the traced repeat (``_s`` is self seconds
    of the run phase unless named in ``TOTAL_SECONDS``), and the run's
    self seconds summed by layer."""
    write_jsonl(traced.spans, traced.run_dir / "spans.jsonl")
    fit = by_name(traced.spans[: traced.fit_spans])
    run_spans = traced.spans[traced.fit_spans :]
    layers = by_name(run_spans)
    metrics = {
        f"{name}_s": (
            layer.seconds if name in TOTAL_SECONDS else layer.self_seconds
        )
        for name, layer in layers.items()
    }
    metrics["data.sample_self_s"] = layers["data.sample"].self_seconds
    metrics["datasets.generate_s"] = generate_s
    metrics["core.initial_fit_s"] = fit["core.initial_fit"].seconds
    metrics["ml.train_full_s"] = fit["execution.train_full"].seconds

    for name in ("online_pass", "transform_only", "train_step", "predict"):
        metrics[f"execution.{name}_calls"] = layers[f"execution.{name}"].calls
    for kind in ("update", "transform"):
        metrics[f"pipeline.{kind}_calls"] = sum(
            layer.calls
            for name, layer in layers.items()
            if name.startswith("pipeline.") and name.endswith(kind)
        )
    metrics["ml.gradient_calls"] = layers["ml.gradient"].calls
    metrics["ml.rows_trained"] = traced.recorder.counts[
        "core.online_step"
    ] + sum(o.rows for o in traced.deployment.platform.proactive_outcomes)

    loop_s = layers[PREDICT].seconds + layers[OBSERVE].seconds
    metrics["core.loop_other_s"] = traced.run_s - loop_s
    metrics["core.proactive_count"] = layers["core.proactive_run"].calls
    metrics["core.predict_ms_p95"] = percentile(
        np.concatenate([repeat.predict_s for repeat in untraced]) * 1e3, 95
    )
    metrics["core.chunk_ms_p99"] = percentile(
        np.concatenate([repeat.chunk_s for repeat in untraced]) * 1e3, 99
    )

    data_manager = traced.deployment.platform.data_manager
    sampled = data_manager.stats.chunks_sampled
    get_raw = layers.get("data.storage_get_raw")
    metrics["data.storage_get_raw_calls"] = get_raw.calls if get_raw else 0
    metrics["data.storage_evictions"] = (
        data_manager.storage.stats.features_evicted
    )
    metrics["data.sampled_chunks"] = sampled
    metrics["data.remat_chunks"] = data_manager.stats.rematerializations
    metrics["data.materialized_hit_ratio"] = (
        data_manager.stats.chunks_materialized / sampled
    )
    metrics["data.materialized_bytes_end"] = (
        data_manager.storage.materialized_bytes
    )

    telemetry = traced.deployment.telemetry
    if telemetry.enabled:
        metrics["obs.events_emitted"] = layers["obs.jsonl_emit"].calls
        metrics["obs.ledger_entries"] = len(telemetry.ledger)
        metrics["obs.trace_bytes"] = (
            traced.run_dir / "trace.jsonl"
        ).stat().st_size
    store = traced.deployment.reliability.store
    if store is not None:
        writes = [
            span.seconds * 1e3
            for span in run_spans
            if span.name == "reliability.checkpoint_write"
        ]
        metrics["reliability.checkpoint_write_ms_p50"] = percentile(writes, 50)
        metrics["reliability.checkpoint_write_ms_last"] = writes[-1]
        metrics["reliability.checkpoint_writes"] = len(writes)
        metrics["reliability.checkpoint_bytes"] = directory_bytes(
            store.directory
        )

    untraced_s = statistics.median(repeat.run_s for repeat in untraced)
    metrics["trace.coverage"] = (
        sum(layer.self_seconds for layer in layers.values()) / traced.run_s
    )
    metrics["trace.overhead_share"] = (traced.run_s - untraced_s) / untraced_s
    metrics["trace.spans"] = len(run_spans)
    metrics["speed.slowdown_p50"] = 1.0 / percentile(traced.factors, 50)
    metrics["speed.raw_rows_per_s"] = statistics.median(
        rows / repeat.raw_run_s for repeat in untraced
    )

    # A layer is the module a span name starts with.
    layer_seconds: Dict[str, float] = {}
    for name, layer in layers.items():
        module = name.split(".")[0]
        layer_seconds[module] = (
            layer_seconds.get(module, 0.0) + layer.self_seconds
        )
    layer_seconds["unattributed"] = traced.run_s - sum(layer_seconds.values())
    return metrics, layer_seconds


def generate(scenario, probe: SpeedProbe):
    """The initial data, the whole stream, and the seconds making them
    took at reference speed (a reading before every piece)."""
    readings = [probe.read()]
    start = perf_counter()
    initial = scenario.make_initial_data()
    durations = [perf_counter() - start]
    stream = []
    source = iter(scenario.make_stream())
    while True:
        readings.append(probe.read())
        start = perf_counter()
        table = next(source, None)
        durations.append(perf_counter() - start)
        if table is None:
            break
        stream.append(table)
    factors = speed_factors(readings, summed=True)
    return initial, stream, float(np.dot(durations, factors))


def measure(
    workload: Workload,
    seed: Optional[int],
    scale: str,
    seconds: Optional[float],
    trace: bool,
    run_root: Path,
) -> dict:
    """Set up, warm up, time the repeats, trace one, check outputs."""
    warnings.simplefilter("ignore", ConvergenceWarning)
    probe = SpeedProbe()
    calib_before = calibrate(probe)

    scenario = workload.scenario(scale, seed)
    initial, stream, generate_s = generate(scenario, probe)
    rows = sum(table.num_rows for table in stream)

    golden = None
    if scale == "bench" and scenario.seed == workload.scenario(scale).seed:
        expected = Path(__file__).with_name("expected.json")
        golden = json.loads(expected.read_text())[workload.name]

    run_root.mkdir(parents=True, exist_ok=True)
    runs = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=run_root))

    def repeat(name: str, traced: bool = False) -> Repeat:
        gc.collect()
        done = Repeat(
            workload, scenario, initial, stream, runs / name, probe, traced
        )
        print(
            f"# {workload.name} {name}: run {done.run_s:.3f} s at reference "
            f"speed ({done.raw_run_s:.3f} s raw), fit {done.fit_s:.3f} s",
            file=sys.stderr,
        )
        return done

    try:
        # Untimed: finishes imports and memoised digests.
        small = workload.scenario("test", seed)
        Repeat(
            workload,
            small,
            small.make_initial_data(),
            list(small.make_stream()),
            runs / "warmup",
            probe,
        )

        repeats: List[Repeat] = []
        while not repeats or (
            sum(r.raw_run_s for r in repeats) < seconds
            if seconds is not None
            else len(repeats) < workload.repeats
        ):
            repeats.append(repeat(f"repeat-{len(repeats)}"))
        measured = end_to_end(repeats, rows, generate_s)

        layer_metrics = layer_seconds = None
        checked = list(repeats)
        if trace:
            traced = repeat("traced", traced=True)
            layer_metrics, layer_seconds = per_layer(
                traced, repeats, rows, generate_s
            )
            checked.append(traced)
    finally:
        shutil.rmtree(runs, ignore_errors=True)

    failures = []
    for index, repeat in enumerate(checked):
        problems = check_outputs(
            repeat.outputs,
            len(stream),
            repeats[0].outputs if index else None,
            golden,
        )
        if problems:
            failures.append(f"repeat {index}: " + "; ".join(problems))

    # How fast the machine ran is scaled away; what is left of a noisy
    # neighbour is repeats that disagree by more than a metric's bound.
    bounds = {m["name"]: m["bound"] for m in load_spec()["end_to_end"]}
    unsteady = sorted(
        name
        for name, values in measured["per_repeat"].items()
        if spread(values) > bounds[name]
    )
    return {
        "workload": workload.name,
        "seed": scenario.seed,
        "repeats": len(repeats),
        "run_root": str(run_root),
        "calib_ms_before": calib_before,
        "calib_ms_after": calibrate(probe),
        "noisy": bool(unsteady),
        "unsteady": unsteady,
        "ops_attempted": len(checked) * (len(stream) + 1),
        "ops_failed": len(failures),
        "failures": failures,
        "outputs": repeats[0].outputs,
        "end_to_end": measured["values"],
        "per_repeat": measured["per_repeat"],
        "samples": measured["samples"],
        "per_layer": layer_metrics,
        "layer_self_s": layer_seconds,
        "traced_run_s": traced.run_s if trace else None,
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }


def with_units(values: Dict[str, float], declared: List[dict]) -> dict:
    """``{name: {value, unit}}``; a metric ``BENCHMARK.json`` does not
    declare is an error, one a workload does not build reads 0."""
    units = {metric["name"]: metric["unit"] for metric in declared}
    undeclared = sorted(set(values) - set(units))
    if undeclared:
        raise KeyError(f"not declared in BENCHMARK.json: {undeclared}")
    return {
        name: {"value": values.get(name, 0), "unit": unit}
        for name, unit in units.items()
    }


def print_result(result: dict, spec: dict) -> None:
    """Every metric by name with its unit, then the checks."""
    print(
        f"== {result['workload']} (seed {result['seed']}, "
        f"{result['repeats']} timed repeats, "
        f"run files under {result['run_root']})"
    )
    for metric in spec["end_to_end"]:
        name = metric["name"]
        print(
            f"{name:<40}{result['end_to_end'][name]:>14.4f} "
            f"{metric['unit']:<6} n={result['samples'][name]}"
        )
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name in (result["per_layer"] or ()):
            value = result["per_layer"][name]
            shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.4f}"
            print(f"{name:<40}{shown} {metric['unit']}")
    print(
        f"calib_ms_before {result['calib_ms_before']:.1f}  "
        f"calib_ms_after {result['calib_ms_after']:.1f}  "
        f"noisy {result['noisy']} {' '.join(result['unsteady'])}"
    )
    print(
        f"ops_attempted {result['ops_attempted']}  "
        f"ops_failed {result['ops_failed']}"
    )
    for failure in result["failures"]:
        print(f"FAILED {failure}")


def pin_hash_seed() -> None:
    """Start over with ``PYTHONHASHSEED=0`` unless it is already set.

    String hashing is salted per process; with it, dict and set
    layouts in the URL pipeline differ from one process to the next
    and ``predict_ms_p50`` of one commit lands on 1.94 or 2.12 ms.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        script = str(Path(__file__).resolve())
        os.execv(sys.executable, [sys.executable, script, *sys.argv[1:]])


def run_one(args) -> int:
    pin_hash_seed()
    spec = load_spec()
    result = measure(
        WORKLOADS[args.workload],
        args.seed,
        "bench",
        args.seconds,
        bool(args.trace),
        args.run_root,
    )
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / f"{args.workload}.json").write_text(
            json.dumps(result, indent=1) + "\n"
        )
    print_result(result, spec)
    metrics = (
        with_units(result["per_layer"], spec["per_layer"])
        if args.trace
        else with_units(result["end_to_end"], spec["end_to_end"])
    )
    print(
        json.dumps(
            {
                "correct": result["ops_failed"] == 0,
                "attempted": result["ops_attempted"],
                "failed": result["ops_failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


def run_all(args) -> int:
    """Each workload in a fresh subprocess, never two at once; one
    whose repeats disagree by more than a bound is retried once."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--trace",
        str(args.trace),
        "--run-root",
        str(args.run_root),
        "--out",
        str(args.out),
    ]
    if args.seed is not None:
        command += ["--seed", str(args.seed)]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    noisy = []
    for name in WORKLOADS:
        for attempt in (1, 2):
            subprocess.run([*command, "--workload", name], check=True)
            result = json.loads((args.out / f"{name}.json").read_text())
            if not result["noisy"]:
                break
            print(
                f"{name}: repeats spread wider than the bound on "
                f"{', '.join(result['unsteady'])} (attempt {attempt})",
                file=sys.stderr,
            )
        else:
            noisy.append(name)
    print(stack_ratio(args.out))
    if noisy:
        print(
            f"giving up: {', '.join(noisy)} still noisy after a retry; "
            "something other than the machine's speed varies between "
            f"repeats, the numbers in {args.out} are marked noisy",
            file=sys.stderr,
        )
        return 3
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(WORKLOADS))
    which.add_argument("--all", action="store_true")
    parser.add_argument(
        "--seed",
        type=int,
        help="scenario seed (default: URL 7, taxi 3, the seeds the "
        "goldens in expected.json were recorded at)",
    )
    parser.add_argument(
        "--seconds",
        type=float,
        help="repeat until this many seconds of Deployment.run were "
        "timed (default: each workload's fixed repeat count)",
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        default=1,
        help="1: add the traced repeat and end with the per-layer "
        "metrics; 0: end with the end-to-end metrics",
    )
    parser.add_argument(
        "--run-root",
        type=Path,
        default=ROOT / ".bench_runs",
        help="where repeats put trace files and checkpoints",
    )
    parser.add_argument("--out", type=Path, help="directory for <workload>.json")
    args = parser.parse_args(argv)
    if args.all:
        if args.out is None:
            parser.error("--all needs --out")
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

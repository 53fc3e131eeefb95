"""Telemetry overhead guard.

The observability layer's contract is that *disabled* telemetry is
effectively free: every hot call site — each execution-engine
operation included, which is written once for both modes — calls the
no-op :class:`~repro.obs.trace.NullTracer`, whose ``span`` returns one
shared do-nothing context manager.

This benchmark makes that contract executable:

1. run a small continuous deployment untraced and take its engine
   wall time as the work baseline;
2. run the identical deployment traced to count how many telemetry
   events (span/point sites) such a run actually exercises;
3. microbenchmark the disabled span protocol, project its cost onto
   that event count, and assert the projection stays under 5% of the
   baseline.

The projection is deliberately pessimistic — it prices every traced
event at full no-op-span cost, while point events are cheaper still.
"""

from __future__ import annotations

import time

from benchmarks.conftest import run_once
from repro.experiments.common import run_continuous, url_scenario
from repro.obs import Telemetry
from repro.obs.trace import NULL_TRACER

#: Maximum tolerated projected overhead of disabled telemetry,
#: relative to the run's engine wall time.
MAX_OVERHEAD_FRACTION = 0.05

_NOOP_ITERATIONS = 200_000


def _noop_span_seconds(iterations: int = _NOOP_ITERATIONS) -> float:
    """Average wall cost of one disabled span site."""
    tracer = NULL_TRACER
    started = time.perf_counter()
    for _ in range(iterations):
        with tracer.span("engine.predict", values=1):
            pass
    return (time.perf_counter() - started) / iterations


def test_noop_tracer_overhead(benchmark, report, bench_record):
    scenario = url_scenario("test")

    untraced = run_continuous(scenario)
    telemetry = Telemetry()
    run_continuous(scenario, telemetry=telemetry)
    events = telemetry.ring.emitted

    per_span = run_once(benchmark, _noop_span_seconds)
    projected = events * per_span
    budget = MAX_OVERHEAD_FRACTION * untraced.wall_seconds

    report(
        "obs_overhead",
        "\n".join(
            [
                "disabled-telemetry overhead projection",
                f"engine wall time (untraced run): "
                f"{untraced.wall_seconds * 1e3:.2f} ms",
                f"telemetry events in a traced run: {events}",
                f"no-op span cost: {per_span * 1e9:.1f} ns/site",
                f"projected overhead: {projected * 1e6:.1f} us "
                f"({projected / untraced.wall_seconds:.4%} of wall)",
                f"budget ({MAX_OVERHEAD_FRACTION:.0%}): "
                f"{budget * 1e3:.2f} ms",
            ]
        ),
    )

    assert events > 0
    assert projected < budget

    bench_record(
        "obs_overhead",
        scenario=scenario,
        count={"telemetry_events": events},
        wall={
            "noop_span_s": per_span,
            "untraced_wall_s": untraced.wall_seconds,
        },
        params={"noop_iterations": _NOOP_ITERATIONS, "scale": "test"},
    )

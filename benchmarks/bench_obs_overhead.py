"""Telemetry overhead guard.

The observability layer's contract is that *disabled* telemetry is
effectively free: every call site is written once for both modes and
never asks whether telemetry is on — it calls the no-op
:class:`~repro.obs.trace.NullTracer`, whose ``span`` returns one
shared do-nothing context manager, or the no-op
:class:`~repro.obs.metrics.NullMetricsRegistry`, whose every
instrument is one shared do-nothing object.

This benchmark makes that contract executable:

1. run a small continuous deployment untraced and take its engine
   wall time as the work baseline;
2. run the identical deployment traced to count how many telemetry
   events (span/point sites) and how many instrument writes
   (counter/gauge/histogram sites) such a run actually exercises;
3. microbenchmark the disabled span protocol and the disabled
   counter, gauge and histogram sites, project their cost onto those
   counts, and assert the projection stays under 5% of the baseline.

The projection is deliberately pessimistic — it prices every traced
event at full no-op-span cost, while point events are cheaper still,
and every instrument write at the dearest of the three null sites.
"""

from __future__ import annotations

import time

from benchmarks.conftest import run_once
from repro.experiments.common import run_continuous, url_scenario
from repro.obs import MetricsRegistry, Telemetry
from repro.obs.metrics import NULL_METRICS
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


def _noop_metric_seconds(
    iterations: int = _NOOP_ITERATIONS,
) -> "dict[str, float]":
    """Average wall cost of one disabled site per instrument kind."""
    metrics = NULL_METRICS
    sites = {
        "counter": lambda: metrics.counter("scheduler.fired").inc(),
        "gauge": lambda: metrics.gauge("cache.materialized_bytes").set(1),
        "histogram": lambda: metrics.observe("proactive.duration", 1.0),
    }
    costs = {}
    for kind, site in sites.items():
        started = time.perf_counter()
        for _ in range(iterations):
            site()
        costs[kind] = (time.perf_counter() - started) / iterations
    return costs


class _CountingRegistry(MetricsRegistry):
    """Counts instrument look-ups: one per explicit emit site. A site
    that keeps its instrument and writes it in a loop counts once (its
    further writes are bare no-op calls, cheaper than the look-up
    priced here). Span histograms go through the tracer's own registry
    reference and do not exist on the disabled path: not counted."""

    lookups = 0

    def counter(self, name):
        self.lookups += 1
        return super().counter(name)

    def gauge(self, name):
        self.lookups += 1
        return super().gauge(name)

    def histogram(self, name, base=None):
        self.lookups += 1
        return super().histogram(name, base)


def test_noop_tracer_overhead(benchmark, report, bench_record):
    scenario = url_scenario("test")

    untraced = run_continuous(scenario)
    telemetry = Telemetry()
    telemetry.metrics = _CountingRegistry()
    run_continuous(scenario, telemetry=telemetry)
    events = telemetry.ring.emitted
    metric_sites = telemetry.metrics.lookups

    per_span = run_once(benchmark, _noop_span_seconds)
    per_metric = _noop_metric_seconds()
    projected = events * per_span + metric_sites * max(
        per_metric.values()
    )
    budget = MAX_OVERHEAD_FRACTION * untraced.wall_seconds

    report(
        "obs_overhead",
        "\n".join(
            [
                "disabled-telemetry overhead projection",
                f"engine wall time (untraced run): "
                f"{untraced.wall_seconds * 1e3:.2f} ms",
                f"telemetry events in a traced run: {events}",
                f"instrument writes in a traced run: {metric_sites}",
                f"no-op span cost: {per_span * 1e9:.1f} ns/site",
                "no-op instrument cost: "
                + ", ".join(
                    f"{kind} {cost * 1e9:.1f}"
                    for kind, cost in per_metric.items()
                )
                + " ns/site",
                f"projected overhead: {projected * 1e6:.1f} us "
                f"({projected / untraced.wall_seconds:.4%} of wall)",
                f"budget ({MAX_OVERHEAD_FRACTION:.0%}): "
                f"{budget * 1e3:.2f} ms",
            ]
        ),
    )

    assert events > 0
    assert metric_sites > 0
    assert projected < budget

    bench_record(
        "obs_overhead",
        scenario=scenario,
        count={
            "telemetry_events": events,
            "metric_sites": metric_sites,
        },
        wall={
            "noop_span_s": per_span,
            **{
                f"noop_{kind}_s": cost
                for kind, cost in per_metric.items()
            },
            "untraced_wall_s": untraced.wall_seconds,
        },
        params={"noop_iterations": _NOOP_ITERATIONS, "scale": "test"},
    )

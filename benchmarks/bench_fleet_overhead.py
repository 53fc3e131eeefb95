"""Fleet-scheduler overhead guard.

The fleet orchestrator inserts a scheduling decision (signals →
stride allocation → byte quotas → balance re-score) in front of every
epoch of real pipeline work. The scheduler exists to *spend* a shared
budget well, so its own cost must be noise. This benchmark makes that
budget executable, as a projection (nothing else times a fleet):

1. run a small mixed URL/taxi fleet end to end and take its wall time
   as the work baseline (also proving the run trains and stays
   deterministic);
2. microbenchmark one ``FleetScheduler.allocate`` call — priced on a
   live scheduler fed realistic signals, so stride bookkeeping, the
   starvation guard, and the largest-remainder byte split are all
   inside the timed region;
3. project the per-epoch cost onto the run's epoch count and assert
   the projection stays under 5% of the fleet's wall time.

The deterministic counts and the aggregate error go through
``bench_record`` (``BENCH_fleet_overhead.json``: appended by ``make
bench-record``, exact-match gated by ``make bench-check``) and into
``results/fleet_overhead.txt``; the wall times stay in this process,
in the ratio asserted above and on stdout.
"""

from __future__ import annotations

import time

from benchmarks.conftest import BENCH_SCALE, run_once
from repro.fleet import (
    FleetOrchestrator,
    FleetScheduler,
    TenantSignals,
    make_fleet,
)

SEED = 11

#: Maximum tolerated projected scheduler overhead, relative to the
#: fleet run's wall time.
MAX_OVERHEAD_FRACTION = 0.05

#: Fleet dimensions per scale (tenants, chunks per tenant).
_FLEETS = {"test": (6, 8), "bench": (12, 16)}

_ALLOCATE_ITERATIONS = 2_000


def _fleet_spec():
    tenants, chunks = _FLEETS.get(BENCH_SCALE, _FLEETS["bench"])
    return make_fleet(tenants, seed=SEED, chunks=chunks, rows=12)


def _allocate_seconds(spec, iterations=_ALLOCATE_ITERATIONS) -> float:
    """Average wall cost of one full scheduling decision."""
    scheduler = FleetScheduler(spec)
    staleness = [0] * spec.num_tenants
    started = time.perf_counter()
    for _ in range(iterations):
        signals = [
            TenantSignals(
                tenant=i,
                new_rows=tenant.rows,
                drift_score=0.1 if i % 2 else 0.0,
                staleness_epochs=staleness[i],
                weight=tenant.weight,
                strategy=tenant.strategy,
                active=True,
            )
            for i, tenant in enumerate(spec.tenants)
        ]
        allocation = scheduler.allocate(signals)
        for i, slots in enumerate(allocation.train_slots):
            staleness[i] = 0 if slots else staleness[i] + 1
    return (time.perf_counter() - started) / iterations


def test_fleet_overhead(benchmark, report, bench_record):
    spec = _fleet_spec()

    def _run():
        started = time.perf_counter()
        result = FleetOrchestrator(spec).run()
        return result, time.perf_counter() - started

    result, fleet_wall = run_once(benchmark, _run)
    per_allocate = _allocate_seconds(spec)
    projected = result.epochs * per_allocate
    budget = MAX_OVERHEAD_FRACTION * fleet_wall

    report(
        "fleet_overhead",
        "\n".join(
            [
                "fleet-scheduler overhead projection",
                f"fleet: {spec.num_tenants} tenants x "
                f"{max(t.chunks for t in spec.tenants)} chunks "
                f"({BENCH_SCALE} scale), policy={spec.policy}",
                f"epochs: {result.epochs}, "
                f"trainings: {sum(result.trainings)}",
                f"aggregate error: {result.aggregate_error:.5f}",
                f"digest: {result.digest[:16]}...",
            ]
        ),
        wall="\n".join(
            [
                f"fleet wall time: {fleet_wall * 1e3:.2f} ms",
                f"allocate cost: {per_allocate * 1e6:.2f} us/epoch",
                f"projected scheduler overhead: "
                f"{projected * 1e6:.1f} us "
                f"({projected / fleet_wall:.4%} of wall)",
                f"budget ({MAX_OVERHEAD_FRACTION:.0%}): "
                f"{budget * 1e3:.2f} ms",
            ]
        ),
    )

    assert result.epochs > 0
    assert sum(result.trainings) > 0
    assert projected < budget

    bench_record(
        "fleet_overhead",
        count={
            "tenants": spec.num_tenants,
            "epochs": result.epochs,
            "trainings": sum(result.trainings),
            "rescues": result.rescues,
            "overdrafts": result.overdrafts,
        },
        quality={"aggregate_error": result.aggregate_error},
        seed=SEED,
        params={
            "scale": BENCH_SCALE,
            "policy": spec.policy,
            "allocate_iterations": _ALLOCATE_ITERATIONS,
        },
    )

"""Trajectories pinned by a fixed run rather than a paper artifact.

Two committed ``BENCH_*.json`` files record runs whose shape does not
follow ``REPRO_BENCH_SCALE``:

* ``run_url_test_continuous`` — the CLI reference workload, the run
  ``repro run --run-dir D`` makes (``repro obs D`` prints its
  profile): the URL scenario at test scale, continuous deployment,
  traced. Its record carries the
  headline cost/quality numbers, one ``n_<counter>`` count per
  platform counter, and the profile digest of the folded span tree,
  so a cost that moved between components with the totals intact
  still shows (as ``changed``; the digest never gates).
* ``exp8_fleet`` — experiment 8's default comparison (24 tenants,
  seed 11, 16 chunks of 12 rows), with the fair-share run's aggregate
  error after every epoch.

Both go through ``bench_record`` like every other bench: ``make
bench-record`` appends them, ``make bench-check`` gates them.
"""

from __future__ import annotations

from benchmarks.conftest import run_once
from repro.experiments.common import run_approach, url_scenario
from repro.experiments.exp8_fleet import (
    COMPARED_POLICIES,
    headline_claims,
    run_fleet_experiment,
)
from repro.obs import Telemetry, build_profile, profile_digest

#: The reference workload: ``repro run --approach continuous --dataset
#: url --scale test``.
_REFERENCE = url_scenario("test")
_APPROACH = "continuous"

#: ``repro exp8``'s defaults.
_FLEET = {"num_tenants": 24, "seed": 11, "chunks": 16, "rows": 12}


def test_reference_workload(benchmark, bench_record):
    def _run():
        telemetry = Telemetry()
        result = run_approach(_REFERENCE, _APPROACH, telemetry)
        return result, build_profile(telemetry.events)

    result, root = run_once(benchmark, _run)
    assert root.cum_cost > 0.0
    bench_record(
        f"run_{_REFERENCE.name.replace('-', '_')}_{_APPROACH}",
        cost={"total_cost": result.total_cost},
        quality={
            "final_error": result.final_error,
            "average_error": result.average_error,
        },
        count={
            "chunks": result.chunks_processed,
            **{f"n_{k}": v for k, v in result.counters.items()},
        },
        seed=_REFERENCE.seed,
        params={
            "scenario": _REFERENCE.name,
            "approach": _APPROACH,
            "num_chunks": _REFERENCE.num_chunks,
            "online_batch_rows": _REFERENCE.online_batch_rows,
        },
        profile_digest=profile_digest(root),
    )


def test_exp8_fleet(benchmark, bench_record):
    result = run_once(
        benchmark,
        lambda: run_fleet_experiment(**_FLEET, verify_identity=False),
    )
    assert result.equal_budget
    assert result.fair_beats_round_robin
    claims = headline_claims(result)
    fair = result.fair
    bench_record(
        "exp8_fleet",
        cost={"fair_total_cost": claims["fair_total_cost"]},
        quality={
            "fair_aggregate_error": claims["fair_aggregate_error"],
            "round_robin_aggregate_error": claims[
                "round_robin_aggregate_error"
            ],
            "fair_advantage": claims["fair_advantage"],
            # The whole per-epoch curve, not just its endpoint.
            **{
                f"fair_error_epoch_{entry['epoch']:02d}": entry[
                    "aggregate_error"
                ]
                for entry in fair.schedule_log
            },
        },
        count={
            "trainings": claims["fair_trainings"],
            "rescues": claims["fair_rescues"],
            "epochs": fair.epochs,
            "tenants": len(fair.tenants),
        },
        seed=_FLEET["seed"],
        params={
            "num_tenants": _FLEET["num_tenants"],
            "chunks": _FLEET["chunks"],
            "policies": list(COMPARED_POLICIES),
        },
    )

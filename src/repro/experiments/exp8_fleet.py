"""Experiment 8 (extension): multi-tenant fleet orchestration.

Experiments 1-7 each drive ONE deployment pipeline. Real platforms
run dozens — per-team models with their own data streams, drift, and
budgets — against shared, bounded resources. This experiment runs the
same mixed URL/taxi fleet (24 tenants by default) twice under each
scheduling policy and measures two things:

* **policy value** — at an *equal total training budget*, fair-share
  stride scheduling over ``weight x (1 + urgency)`` priorities beats
  naive round robin on aggregate (weight-averaged) prequential loss.
  The win is structural, not tuned noise: the weighted aggregate
  rewards spending scarce slots where weight and data urgency are
  highest, and round robin is blind to both.
* **determinism** — the fleet is a pure function of (spec, seed).
  Same-seed runs must produce byte-identical schedule/prequential
  digests AND byte-identical telemetry digests; the committed
  ``BENCH_exp8_fleet.json`` trajectory pins the 24-tenant headline
  and per-epoch errors (``benchmarks/bench_exp8_fleet.py`` gates it).

Both policies see identical tenants: same specs, same seeds, same
streams, same opt-outs (``online``-strategy tenants receive no slots
under *either* policy — a tenant's consent binds the scheduler, not
the other way around).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.exceptions import ValidationError
from repro.fleet.orchestrator import FleetOrchestrator, FleetResult
from repro.fleet.spec import POLICIES, make_fleet
from repro.obs.telemetry import Telemetry

#: Policies the experiment compares, in run order.
COMPARED_POLICIES = ("fair_share", "round_robin")


@dataclass
class FleetExperimentResult:
    """Both policies' fleets plus the determinism verdicts."""

    #: First run per policy.
    runs: Dict[str, FleetResult]
    #: Same-seed re-run produced byte-identical schedule digests.
    digests_identical: bool
    #: ... and byte-identical telemetry digests, none of them ``None``.
    telemetry_identical: bool

    @property
    def fair(self) -> FleetResult:
        return self.runs["fair_share"]

    @property
    def round_robin(self) -> FleetResult:
        return self.runs["round_robin"]

    @property
    def fair_beats_round_robin(self) -> bool:
        """The headline: lower weighted loss at equal budget."""
        return (
            self.fair.aggregate_error
            < self.round_robin.aggregate_error
        )

    @property
    def equal_budget(self) -> bool:
        return sum(self.fair.trainings) == sum(
            self.round_robin.trainings
        )


def run_fleet_experiment(
    num_tenants: int = 24,
    seed: int = 11,
    chunks: int = 16,
    rows: int = 12,
    telemetry: Optional[Telemetry] = None,
    verify_identity: bool = True,
) -> FleetExperimentResult:
    """Run the fleet under both policies (twice each when verifying).

    ``telemetry`` is bound to the *first* fair-share run. When
    verifying, every other first run gets a fresh bundle and every
    re-run a twin of its first run's, so each policy's two telemetry
    digests exist and see the same instrumentation.
    """
    if num_tenants < 2:
        raise ValidationError(
            f"the fleet comparison needs >= 2 tenants, "
            f"got {num_tenants}"
        )
    runs: Dict[str, FleetResult] = {}
    digests_ok = True
    telemetry_ok = True
    for policy in COMPARED_POLICIES:
        spec = make_fleet(
            num_tenants,
            seed=seed,
            policy=policy,
            chunks=chunks,
            rows=rows,
        )
        bound = telemetry if policy == "fair_share" else None
        if verify_identity and bound is None:
            bound = Telemetry()
        result = FleetOrchestrator(spec, telemetry=bound).run()
        runs[policy] = result
        if verify_identity:
            again = FleetOrchestrator(spec, telemetry=_twin(bound)).run()
            digests_ok = digests_ok and (
                again.digest == result.digest
            )
            telemetry_ok = telemetry_ok and (
                result.telemetry_digest is not None
                and again.telemetry_digest == result.telemetry_digest
            )
    return FleetExperimentResult(
        runs=runs,
        digests_identical=digests_ok,
        telemetry_identical=telemetry_ok,
    )


def _twin(telemetry: Telemetry) -> Telemetry:
    """A fresh bundle with ``telemetry``'s ledger and monitor (and no
    user sink), so a re-run's event stream is comparable with the
    bound run's."""
    twin = Telemetry()
    if telemetry.ledger is not None:
        twin.attach_ledger()
    if telemetry.monitor is not None:
        twin.attach_monitor(
            rules=telemetry.monitor.rules, config=telemetry.monitor.config
        )
    return twin


def headline_claims(
    result: FleetExperimentResult,
) -> Dict[str, float]:
    """The numbers the experiment exists to produce."""
    fair, rr = result.fair, result.round_robin
    return {
        "fair_aggregate_error": fair.aggregate_error,
        "round_robin_aggregate_error": rr.aggregate_error,
        "fair_advantage": rr.aggregate_error - fair.aggregate_error,
        "fair_trainings": float(sum(fair.trainings)),
        "round_robin_trainings": float(sum(rr.trainings)),
        "fair_rescues": float(fair.rescues),
        "fair_balance": fair.schedule_log[-1]["balance"],
        "fair_total_cost": fair.total_cost,
        "round_robin_total_cost": rr.total_cost,
    }


def format_comparison(result: FleetExperimentResult) -> str:
    """The per-policy summary table ``repro exp8`` prints."""
    lines = [
        f"{'policy':<12} {'aggregate':>10} {'trainings':>10} "
        f"{'rescues':>8} {'cost':>10}"
    ]
    for policy in COMPARED_POLICIES:
        if policy not in POLICIES:  # pragma: no cover - sanity
            continue
        run = result.runs[policy]
        lines.append(
            f"{policy:<12} {run.aggregate_error:>10.5f} "
            f"{sum(run.trainings):>10} {run.rescues:>8} "
            f"{run.total_cost:>10.3f}"
        )
    return "\n".join(lines)

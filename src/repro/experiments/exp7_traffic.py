"""Experiment 7 (extension): a rollout surviving a traffic spike.

Experiments 1-6 drive deployments chunk-at-a-time; real serving is a
request stream with its own physics — bursts, queues, drops. This
experiment stages a candidate next to the live model and throws an
open-loop traffic spike at the pair while proactive training keeps
producing on the side, measuring what the paper's platform would
actually expose to users:

* **steady** — the candidate shadows full traffic at the base rate;
  micro-batching amortizes transform + predict work, nobody sheds,
  p99 latency sits inside the SLO budget;
* **spike** — the candidate serves a canary fraction while a burst
  episode multiplies the arrival rate; the admission queue fills,
  load shedding engages, and the health monitor's p99/shed-rate
  rules raise incidents;
* **recovery** — the burst passes, the queue drains, and the same
  rules resolve their incidents — the exported ``health.json`` shows
  the full fire-and-resolve arc on the virtual clock.

Between phases the trainer platform continues over fresh stream
chunks; its training cost advances the shared simulation clock, so
"training continues while serving" is literal, not decorative.

Determinism is the headline: the batched prediction streams are
bit-identical to row-at-a-time serving of the same requests, and a
fresh endpoint replaying the same seeds reproduces every shed
decision, dispatch order, and latency percentile byte-for-byte.
"""

from __future__ import annotations

import copy
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.data.table import Table
from repro.experiments.common import Scenario, make_platform
from repro.obs import names
from repro.obs.telemetry import Telemetry
from repro.serving.endpoint import ServingEndpoint
from repro.serving.registry import ModelRegistry
from repro.traffic.generator import (
    Arrivals,
    BurstEpisode,
    OpenLoopGenerator,
    TrafficPattern,
)
from repro.traffic.simulate import (
    SimulationConfig,
    SimulationResult,
    TrafficSimulator,
    VirtualClock,
)

#: Phase names, in execution order.
PHASES = ("steady", "spike", "recovery")


@dataclass(frozen=True)
class TrafficConfig:
    """Knobs for the three-phase traffic run (times in cost units)."""

    num_users: int = 1_000_000
    rows_per_request: tuple = (2, 6)
    base_rate: float = 60.0
    burst_multiplier: float = 100.0
    #: Burst window inside the spike phase, relative to phase start.
    burst_start: float = 0.3
    burst_duration: float = 0.3
    steady_horizon: float = 1.5
    spike_horizon: float = 2.0
    recovery_horizon: float = 1.5
    canary_fraction: float = 0.3
    #: Trainer chunks consumed between serving phases.
    train_chunks_between: int = 3
    sim: SimulationConfig = field(
        default_factory=lambda: SimulationConfig(
            max_batch_size=8,
            max_wait=0.02,
            queue_capacity=128,
            concurrency=1,
        )
    )
    #: SLO budget the p99 alert enforces.
    p99_budget: float = 0.03
    #: Admissible drops per monitor window before the shed alert.
    shed_per_window: float = 1.0


def default_traffic_config(scenario: Scenario) -> TrafficConfig:
    """Scale-appropriate defaults (the test scale must run in seconds
    yet still overload the queue mid-burst and recover after)."""
    if scenario.num_chunks <= 60:
        return TrafficConfig()
    return TrafficConfig(
        base_rate=120.0,
        steady_horizon=4.0,
        spike_horizon=6.0,
        recovery_horizon=4.0,
        train_chunks_between=8,
    )


@dataclass
class PhaseOutcome:
    """One phase's simulation result plus the staging mode it ran in."""

    phase: str
    mode: str
    result: SimulationResult


@dataclass
class TrafficExperimentResult:
    """Everything ``repro exp7`` reports."""

    phases: Dict[str, PhaseOutcome]
    training_chunks: int
    training_cost: float
    #: Batched streams == row-at-a-time streams, all phases.
    bit_identical: bool
    #: A fresh endpoint replaying regenerated arrivals reproduced
    #: every arrival digest and every phase digest.
    replay_identical: bool
    primary_version: str
    candidate_version: str


def _build_world(scenario: Scenario, config: TrafficConfig, root):
    """Train v1/v2, build the registry, replay pool, and trainer tail.

    v1 is the initial fit; v2 has additionally consumed the first
    quarter of the stream — a genuinely better candidate worth
    staging. The replay pool is drawn from later stream chunks
    (requests sample rows the models never trained on), and the
    remaining chunks feed the between-phase training.
    """
    platform = make_platform(scenario)
    artifacts = platform.manager.artifacts
    v1_parts = copy.deepcopy(artifacts)
    chunks: List[Table] = list(scenario.make_stream())
    warm = max(len(chunks) // 4, 2)
    for table in chunks[:warm]:
        platform.observe(table)
    v2_parts = copy.deepcopy(artifacts)
    pool_span = chunks[warm:warm + max(len(chunks) // 4, 2)]
    pool = Table.concat(pool_span)
    remaining = chunks[warm + len(pool_span):]
    registry = ModelRegistry(Path(root) / "registry")
    v1 = registry.register(*v1_parts, metrics={"origin": 0.0})
    registry.promote(v1.version, reason="initial deployment")
    v2 = registry.register(
        *v2_parts, chunks_observed=warm, metrics={"origin": 1.0}
    )
    return platform, registry, pool, remaining, v1.version, v2.version


def _patterns(config: TrafficConfig) -> Dict[str, TrafficPattern]:
    steady = TrafficPattern(base_rate=config.base_rate)
    spike = TrafficPattern(
        base_rate=config.base_rate,
        bursts=(
            BurstEpisode(
                start=config.burst_start,
                duration=config.burst_duration,
                multiplier=config.burst_multiplier,
            ),
        ),
    )
    return {"steady": steady, "spike": spike, "recovery": steady}


def _phase_arrivals(
    scenario: Scenario, config: TrafficConfig, pool_rows: int
) -> Dict[str, Arrivals]:
    """Pre-generate each phase's arrival stream (seeded per phase).

    Burst times inside the spike pattern are phase-relative; the
    simulator offsets arrivals by the shared clock at phase start.
    """
    patterns = _patterns(config)
    horizons = {
        "steady": config.steady_horizon,
        "spike": config.spike_horizon,
        "recovery": config.recovery_horizon,
    }
    out = {}
    for offset, phase in enumerate(PHASES):
        generator = OpenLoopGenerator(
            patterns[phase],
            num_users=config.num_users,
            pool_rows=pool_rows,
            rows_per_request=config.rows_per_request,
            seed=scenario.seed + 100 + offset,
        )
        out[phase] = generator.generate(horizons[phase])
    return out


def _run_phases(
    endpoint: ServingEndpoint,
    pool: Table,
    arrivals: Dict[str, Arrivals],
    config: TrafficConfig,
    candidate_version: str,
    clock: VirtualClock,
    telemetry: Optional[Telemetry] = None,
    between_phase=None,
) -> Dict[str, PhaseOutcome]:
    """Steady (shadow) → spike (canary) → recovery (canary)."""
    simulator = TrafficSimulator(
        endpoint, pool, config.sim, telemetry=telemetry, clock=clock
    )
    outcomes: Dict[str, PhaseOutcome] = {}
    endpoint.attach_candidate(candidate_version, mode="shadow")
    outcomes["steady"] = PhaseOutcome(
        "steady", "shadow", simulator.run(arrivals["steady"])
    )
    if between_phase is not None:
        between_phase()
    endpoint.detach_candidate()
    endpoint.attach_candidate(
        candidate_version,
        mode="canary",
        fraction=config.canary_fraction,
    )
    outcomes["spike"] = PhaseOutcome(
        "spike", "canary", simulator.run(arrivals["spike"])
    )
    if between_phase is not None:
        between_phase()
    outcomes["recovery"] = PhaseOutcome(
        "recovery", "canary", simulator.run(arrivals["recovery"])
    )
    return outcomes


def _row_at_a_time_identical(
    registry: ModelRegistry,
    pool: Table,
    arrivals: Dict[str, Arrivals],
    outcomes: Dict[str, PhaseOutcome],
    config: TrafficConfig,
    candidate_version: str,
    seed,
) -> bool:
    """Re-serve every dispatched request alone; compare the streams.

    A fresh endpoint (same registry, same routing seed) serves each
    request of each phase row-at-a-time in dispatch order; the
    flattened per-side prediction streams must match the simulator's
    batched streams bit for bit.
    """
    for phase in PHASES:
        outcome = outcomes[phase]
        endpoint = ServingEndpoint(registry, seed=seed)
        if outcome.mode == "shadow":
            endpoint.attach_candidate(candidate_version, mode="shadow")
        else:
            endpoint.attach_candidate(
                candidate_version,
                mode="canary",
                fraction=config.canary_fraction,
            )
        primary_parts: List[np.ndarray] = []
        candidate_parts: List[np.ndarray] = []
        stream = arrivals[phase]
        for request_id in outcome.result.dispatch_order:
            table = pool.take(stream.request_rows(request_id))
            served = endpoint.predict(table, chunk_index=request_id)
            primary_parts.append(served.primary_predictions)
            candidate_parts.append(served.candidate_predictions)
        empty = np.empty(0, dtype=np.float64)
        primary = (
            np.concatenate(primary_parts) if primary_parts else empty
        )
        candidate = (
            np.concatenate(candidate_parts)
            if candidate_parts
            else empty
        )
        if not np.array_equal(primary, outcome.result.primary_stream):
            return False
        if not np.array_equal(
            candidate, outcome.result.candidate_stream
        ):
            return False
    return True


def run_traffic_experiment(
    scenario: Scenario,
    config: Optional[TrafficConfig] = None,
    telemetry: Optional[Telemetry] = None,
    workdir=None,
    verify_identity: bool = True,
) -> TrafficExperimentResult:
    """The full three-phase run (see the module docstring)."""
    if config is None:
        config = default_traffic_config(scenario)

    def run_in(root) -> TrafficExperimentResult:
        platform, registry, pool, remaining, v1, v2 = _build_world(
            scenario, config, root
        )
        arrivals = _phase_arrivals(scenario, config, pool.num_rows)
        clock = VirtualClock()
        endpoint = ServingEndpoint(
            registry, seed=scenario.seed, telemetry=telemetry
        )
        training = {"chunks": 0, "cost": 0.0}
        chunk_iter = iter(remaining)

        def between_phase() -> None:
            # Proactive training continues while serving pauses
            # between phases; its cost advances the shared timeline.
            cost_before = platform.engine.total_cost()
            for _ in range(config.train_chunks_between):
                table = next(chunk_iter, None)
                if table is None:
                    break
                platform.observe(table)
                training["chunks"] += 1
                endpoint.telemetry.metrics.counter(
                    names.TRAFFIC_TRAINING_CHUNKS
                ).inc()
            training["cost"] += (
                platform.engine.total_cost() - cost_before
            )
            clock.advance(
                clock.now + platform.engine.total_cost() - cost_before
            )

        outcomes = _run_phases(
            endpoint,
            pool,
            arrivals,
            config,
            v2,
            clock,
            telemetry=telemetry,
            between_phase=between_phase,
        )
        bit_identical = True
        replay_identical = True
        if verify_identity:
            bit_identical = _row_at_a_time_identical(
                registry, pool, arrivals, outcomes, config, v2,
                scenario.seed,
            )
            # The replay regenerates its arrivals, so it also checks
            # that the generator is a pure function of its seeds.
            replay_arrivals = _phase_arrivals(
                scenario, config, pool.num_rows
            )
            replay_endpoint = ServingEndpoint(
                registry, seed=scenario.seed
            )
            replay = _run_phases(
                replay_endpoint,
                pool,
                replay_arrivals,
                config,
                v2,
                VirtualClock(),
                telemetry=None,
                between_phase=None,
            )
            replay_identical = all(
                replay_arrivals[phase].digest() == arrivals[phase].digest()
                and replay[phase].result.digest()
                == outcomes[phase].result.digest()
                for phase in PHASES
            )
        return TrafficExperimentResult(
            phases=outcomes,
            training_chunks=training["chunks"],
            training_cost=training["cost"],
            bit_identical=bit_identical,
            replay_identical=replay_identical,
            primary_version=v1,
            candidate_version=v2,
        )

    if workdir is not None:
        return run_in(workdir)
    with tempfile.TemporaryDirectory() as root:
        return run_in(root)


def headline_claims(
    result: TrafficExperimentResult,
) -> Dict[str, float]:
    """The numbers the experiment exists to produce."""
    steady = result.phases["steady"].result.report
    spike = result.phases["spike"].result.report
    recovery = result.phases["recovery"].result.report
    return {
        "steady_shed": float(steady.shed),
        "spike_shed": float(spike.shed),
        "recovery_shed": float(recovery.shed),
        "steady_p99_latency": steady.latency["p99"],
        "spike_p99_latency": spike.latency["p99"],
        "recovery_p99_latency": recovery.latency["p99"],
        "spike_vs_steady_p99_ratio": (
            spike.latency["p99"] / steady.latency["p99"]
            if steady.latency["p99"] > 0
            else 0.0
        ),
        "mean_batch_size": spike.mean_batch_size,
        "training_chunks_during_run": float(result.training_chunks),
        "batched_equals_row_at_a_time": float(result.bit_identical),
        "replay_byte_identical": float(result.replay_identical),
    }

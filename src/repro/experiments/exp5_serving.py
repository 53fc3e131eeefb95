"""Experiment 5 (extension): gated canary rollout vs blind promotion.

The paper's platform continuously *produces* models (proactive
training); this experiment measures how they should be *adopted*.
A trainer platform runs over the deployment stream and periodically
emits candidate versions — but every ``corrupt_every``-th candidate
is corrupted (heavy weight noise), modelling the bad training runs
(poisoned samples, diverged optimizers, wrong feature builds) that
continual-learning systems must survive. Three serving policies see
the *identical* candidate sequence:

* ``frozen`` — never adopt anything; serve the initial model forever
  (the lower bound on adoption risk, upper bound on staleness);
* ``blind``  — promote every candidate the moment it arrives (what a
  registry without a quality gate does);
* ``gated``  — stage each candidate as a deterministic hash-routed
  canary; the :class:`~repro.serving.gate.QualityGate` promotes on a
  sustained win and rejects/rolls back on regression.

The prequential serving error of each policy tells the story: blind
promotion inherits every corrupted candidate's error spike; the gated
canary pays only the canary fraction of a bad candidate for a few
chunks, then rejects it — beating blind promotion while staying close
to the good-candidate adoption rate.
"""

from __future__ import annotations

import copy
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.exceptions import ValidationError
from repro.experiments.common import Scenario, make_platform
from repro.ml.metrics import PrequentialTracker
from repro.obs.telemetry import Telemetry
from repro.serving.controller import RolloutController
from repro.serving.endpoint import ServingEndpoint
from repro.serving.gate import GateConfig
from repro.serving.registry import ModelRegistry
from repro.utils.rng import ensure_rng

#: The serving policies compared (report order).
POLICIES = ("frozen", "blind", "gated")


@dataclass
class CandidateSnapshot:
    """One trainer output: artifacts frozen at ``arrival_chunk``."""

    arrival_chunk: int
    pipeline: object
    model: object
    optimizer: object
    corrupted: bool
    objective: float
    training_cost: float
    #: Lineage node id of the proactive training burst that produced
    #: this snapshot (``None`` when no ledger instruments the trainer).
    lineage_event: Optional[str] = None


@dataclass
class ServingPoint:
    """One policy's serving run."""

    policy: str
    error_history: List[float] = field(default_factory=list)
    #: Rollout action counts (promote / reject / rollback / stage).
    transitions: Dict[str, int] = field(default_factory=dict)

    @property
    def final_error(self) -> float:
        return self.error_history[-1] if self.error_history else 0.0

    @property
    def average_error(self) -> float:
        if not self.error_history:
            return 0.0
        return float(np.mean(self.error_history))


def produce_candidates(
    scenario: Scenario,
    candidate_every: Optional[int] = None,
    corrupt_every: int = 3,
    corruption_scale: float = 4.0,
    telemetry: Optional[Telemetry] = None,
):
    """Run the trainer side once; return (initial artifacts, candidates).

    The trainer is a normal continuous platform (online updates +
    proactive training). Every ``candidate_every`` chunks its state is
    deep-copied into a :class:`CandidateSnapshot`; every
    ``corrupt_every``-th snapshot gets its model weights overwhelmed
    with seeded Gaussian noise. Both serving policies replay this
    exact sequence, so the comparison isolates the adoption policy.
    When ``telemetry`` carries a lineage ledger, each snapshot records
    the node id of the training burst that produced it, so the serving
    registries can link their model versions back to training chunks.
    """
    if candidate_every is None:
        candidate_every = max(scenario.num_chunks // 8, 3)
    rng = ensure_rng(scenario.seed + 1)
    platform = make_platform(scenario, telemetry)
    artifacts = platform.manager.artifacts
    initial = copy.deepcopy(artifacts)
    candidates: List[CandidateSnapshot] = []
    cost_before = platform.engine.total_cost()
    for chunk_index, table in enumerate(scenario.make_stream()):
        platform.observe(table)
        if (chunk_index + 1) % candidate_every != 0:
            continue
        snapshot_pipeline, snapshot_model, snapshot_optimizer = (
            copy.deepcopy(artifacts)
        )
        corrupted = (len(candidates) + 1) % corrupt_every == 0
        if corrupted:
            # A genuinely broken training run: the decision direction
            # inverts and noise drowns what is left. Blind promotion
            # adopts this wholesale; the gate must catch it.
            weights = snapshot_model.weights
            weights *= -1.0
            scale = corruption_scale * max(
                float(np.abs(weights).max()), 1e-3
            )
            weights += rng.normal(0.0, scale, size=weights.shape)
        cost_now = platform.engine.total_cost()
        candidates.append(
            CandidateSnapshot(
                arrival_chunk=chunk_index,
                pipeline=snapshot_pipeline,
                model=snapshot_model,
                optimizer=snapshot_optimizer,
                corrupted=corrupted,
                objective=(
                    platform.proactive_outcomes[-1].objective
                    if platform.proactive_outcomes
                    else 0.0
                ),
                training_cost=cost_now - cost_before,
                lineage_event=platform.last_training_event,
            )
        )
        cost_before = cost_now
    return initial, candidates


def run_policy(
    scenario: Scenario,
    policy: str,
    initial,
    candidates: List[CandidateSnapshot],
    registry_root,
    gate_config: Optional[GateConfig] = None,
    canary_fraction: float = 0.4,
    telemetry: Optional[Telemetry] = None,
) -> ServingPoint:
    """Replay the serving stream under one adoption policy."""
    if policy not in POLICIES:
        raise ValidationError(f"unknown policy {policy!r}")
    registry = ModelRegistry(
        Path(registry_root) / policy, telemetry=telemetry
    )
    pipeline, model, optimizer = copy.deepcopy(initial)
    first = registry.register(
        pipeline, model, optimizer, metrics={"origin": 0.0}
    )
    registry.promote(first.version, reason="initial deployment")
    endpoint = ServingEndpoint(
        registry, seed=scenario.seed, telemetry=telemetry
    )
    controller = None
    if policy == "gated":
        controller = RolloutController(
            registry,
            endpoint,
            metric=scenario.metric,
            config=gate_config,
            telemetry=telemetry,
        )
    arrivals = {c.arrival_chunk: c for c in candidates}
    tracker = PrequentialTracker.for_metric(scenario.metric)
    point = ServingPoint(policy=policy)
    for chunk_index, table in enumerate(scenario.make_stream()):
        served = endpoint.predict(table, chunk_index=chunk_index)
        tracker.score(served.predictions, served.labels)
        if controller is not None:
            action = controller.observe(served)
            if action != "continue":
                point.transitions[action] = (
                    point.transitions.get(action, 0) + 1
                )
        candidate = arrivals.get(chunk_index)
        if candidate is None or policy == "frozen":
            continue
        info = registry.register(
            candidate.pipeline,
            candidate.model,
            candidate.optimizer,
            chunks_observed=chunk_index + 1,
            training_cost=candidate.training_cost,
            metrics={"objective": candidate.objective},
            lineage_event=candidate.lineage_event,
        )
        if policy == "blind":
            registry.promote(info.version, reason="blind promotion")
            endpoint.reload_live()
            point.transitions["promote"] = (
                point.transitions.get("promote", 0) + 1
            )
        elif controller.state in ("idle", "monitoring"):
            controller.stage(
                info.version, mode="canary", fraction=canary_fraction
            )
            point.transitions["stage"] = (
                point.transitions.get("stage", 0) + 1
            )
        # else: a rollout is mid-flight; the candidate stays staged-
        # less in the registry (the next arrival supersedes it).
    point.error_history = tracker.history
    return point


def run_serving_experiment(
    scenario: Scenario,
    workdir=None,
    candidate_every: Optional[int] = None,
    corrupt_every: int = 3,
    gate_config: Optional[GateConfig] = None,
    canary_fraction: float = 0.4,
    telemetry: Optional[Telemetry] = None,
) -> Dict[str, ServingPoint]:
    """All three policies over the identical candidate sequence."""
    if gate_config is None:
        gate_config = default_gate_config(scenario)
    initial, candidates = produce_candidates(
        scenario,
        candidate_every=candidate_every,
        corrupt_every=corrupt_every,
        telemetry=telemetry,
    )
    results: Dict[str, ServingPoint] = {}

    def run_all(root) -> None:
        for policy in POLICIES:
            results[policy] = run_policy(
                scenario,
                policy,
                initial,
                candidates,
                root,
                gate_config=gate_config,
                canary_fraction=canary_fraction,
                telemetry=telemetry,
            )

    if workdir is not None:
        run_all(workdir)
    else:
        with tempfile.TemporaryDirectory() as root:
            run_all(root)
    return results


def default_gate_config(scenario: Scenario) -> GateConfig:
    """Gate thresholds proportionate to the scenario's traffic.

    Shorter streams (the test scale) need verdicts within a few
    chunks, so the sample floors and streak lengths shrink with the
    stream.
    """
    small = scenario.num_chunks <= 60
    return GateConfig(
        min_samples=30 if small else 120,
        promote_after=2,
        promote_margin=0.0,
        rollback_after=1 if small else 2,
        rollback_margin=0.25,
        drift_window=20 if small else 60,
        drift_ratio=1.0,
    )


def headline_claims(results: Dict[str, ServingPoint]) -> Dict[str, float]:
    """The numbers the experiment exists to produce."""
    gated = results["gated"]
    blind = results["blind"]
    frozen = results["frozen"]
    return {
        "gated_average_error": gated.average_error,
        "blind_average_error": blind.average_error,
        "frozen_average_error": frozen.average_error,
        "gated_vs_blind_improvement": (
            blind.average_error - gated.average_error
        ),
        "gated_promotions": float(gated.transitions.get("promote", 0)),
        "gated_rejections": float(
            gated.transitions.get("reject", 0)
            + gated.transitions.get("rollback", 0)
        ),
    }

"""Experiment 6 (extension): the price of crash recovery.

The paper's platform is a long-running process, so two reliability
questions matter operationally:

1. **Checkpoint cadence vs recovery cost.** A crash loses the work
   since the last checkpoint; recovery regenerates it. Sweeping the
   checkpoint interval at a fixed kill point measures the redo work —
   chunks reprocessed and virtual cost units respent — which shrinks
   monotonically as checkpoints become more frequent. Every recovered
   run is verified byte-identical (error history, cost history,
   counters) to an uninterrupted baseline: recovery changes *when*
   work happens, never *what* it computes.

2. **Retry masking transient faults.** A deterministic fault plan
   injects transient I/O errors into the stream path. Unprotected,
   the first fault kills the run; under a bounded-backoff
   :class:`~repro.reliability.retry.RetryPolicy` the same plan is
   fully masked and the run completes — again byte-identical to a
   fault-free run, because the retried read re-reads the same chunk.

Run via ``python -m repro exp6 --dataset url --scale test``.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.core.deployment.base import DeploymentResult
from repro.exceptions import ReliabilityError
from repro.experiments.common import (
    Scenario,
    make_deployment,
    run_approach,
)
from repro.obs.telemetry import Telemetry
from repro.reliability import (
    STREAM_READ,
    CheckpointConfig,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    SimulatedCrash,
    TransientFault,
)

#: Checkpoint intervals swept by the cadence experiment (chunks).
DEFAULT_CADENCES = (4, 7, 13)

#: Stream-read occurrences hit by the retry demo's transient faults.
DEFAULT_TRANSIENT_OCCURRENCES = (3, 9, 15, 22)


@dataclass
class CadencePoint:
    """One cadence-sweep measurement."""

    cadence: int
    kill_after_chunks: int
    resume_cursor: int
    redo_chunks: int
    redone_cost: float
    identical: bool


@dataclass
class RetryDemoResult:
    """Outcome of the transient-fault masking demonstration."""

    faults_planned: int
    unprotected_crashed: bool
    unprotected_error: str
    protected_completed: bool
    protected_retries: int
    identical_to_clean: bool


def _identical(
    recovered: DeploymentResult, reference: DeploymentResult
) -> bool:
    return (
        recovered.error_history == reference.error_history
        and recovered.cost_history == reference.cost_history
        and recovered.counters == reference.counters
    )


def run_cadence_sweep(
    scenario: Scenario,
    cadences: Sequence[int] = DEFAULT_CADENCES,
    kill_after_chunks: int = 19,
    approach: str = "continuous",
    directory: Optional[str] = None,
    telemetry: Optional[Telemetry] = None,
) -> List[CadencePoint]:
    """Crash after ``kill_after_chunks`` chunks at each cadence.

    The crash is injected as a ``stream.read`` fault on occurrence
    ``kill_after_chunks + 1`` — the run fully processes that many
    chunks, then dies pulling the next one. Recovery resumes at the
    last checkpoint at or before the kill point; the redo work is the
    distance between them. ``telemetry`` (when given) instruments the
    uninterrupted reference run — the crashing/recovering runs stay
    untraced so the byte-identity check compares bare runs.
    """
    if kill_after_chunks < 1:
        raise ReliabilityError(
            f"kill_after_chunks must be >= 1, got {kill_after_chunks}"
        )
    reference = run_approach(scenario, approach, telemetry)
    points: List[CadencePoint] = []
    with tempfile.TemporaryDirectory(dir=directory) as root:
        for cadence in cadences:
            config = CheckpointConfig(
                directory=str(Path(root) / f"cadence-{cadence}"),
                cadence_chunks=cadence,
                keep=3,
            )
            crashing = scenario.fit(
                make_deployment(
                    scenario,
                    approach,
                    checkpoint=config,
                    fault_plan=FaultPlan.crash_at(
                        STREAM_READ, kill_after_chunks + 1
                    ),
                )
            )
            try:
                crashing.run(scenario.make_stream())
                raise ReliabilityError(
                    "crash fault did not fire; stream shorter than "
                    f"kill point {kill_after_chunks}?"
                )
            except SimulatedCrash:
                pass
            recovering = make_deployment(
                scenario, approach, checkpoint=config
            )
            result = recovering.recover(scenario.make_stream())
            cursor = result.recovery.cursor
            redone_cost = reference.cost_history[
                kill_after_chunks - 1
            ] - (reference.cost_history[cursor - 1] if cursor else 0.0)
            points.append(
                CadencePoint(
                    cadence=cadence,
                    kill_after_chunks=kill_after_chunks,
                    resume_cursor=cursor,
                    redo_chunks=kill_after_chunks - cursor,
                    redone_cost=redone_cost,
                    identical=_identical(result, reference),
                )
            )
    return points


def run_retry_demo(
    scenario: Scenario,
    approach: str = "continuous",
    occurrences: Sequence[int] = DEFAULT_TRANSIENT_OCCURRENCES,
    telemetry: Optional[Telemetry] = None,
) -> RetryDemoResult:
    """Same transient fault plan, with and without a retry policy."""
    plan = FaultPlan.of(
        *(
            FaultSpec(STREAM_READ, occurrence, "io_error")
            for occurrence in occurrences
        )
    )
    reference = run_approach(scenario, approach, telemetry)

    unprotected_crashed = False
    unprotected_error = ""
    try:
        scenario.fit(
            make_deployment(scenario, approach, fault_plan=plan)
        ).run(scenario.make_stream())
    except TransientFault as error:
        unprotected_crashed = True
        unprotected_error = str(error)

    protected = make_deployment(
        scenario,
        approach,
        fault_plan=plan,
        retry=RetryPolicy(max_attempts=3, seed=scenario.seed),
    )
    result = scenario.fit(protected).run(scenario.make_stream())
    return RetryDemoResult(
        faults_planned=len(plan),
        unprotected_crashed=unprotected_crashed,
        unprotected_error=unprotected_error,
        protected_completed=result.chunks_processed
        == reference.chunks_processed,
        protected_retries=(
            protected.reliability.retrier.retries
            if protected.reliability.retrier is not None
            else 0
        ),
        identical_to_clean=_identical(result, reference),
    )


def headline_claims(
    points: Sequence[CadencePoint], demo: RetryDemoResult
) -> Dict[str, float]:
    """The two claims the experiment exists to check.

    ``redo_monotone``: sorted by cadence, redo work never decreases
    as checkpoints get sparser. ``all_identical``: every recovered
    run matched its uninterrupted baseline. ``retry_masked``: the
    plan that killed the unprotected run was fully absorbed by the
    retry policy with an identical result.
    """
    ordered = sorted(points, key=lambda p: p.cadence)
    redo = [p.redo_chunks for p in ordered]
    return {
        "redo_monotone": float(
            all(a <= b for a, b in zip(redo, redo[1:]))
        ),
        "all_identical": float(all(p.identical for p in points)),
        "max_redo_chunks": float(max(redo)) if redo else 0.0,
        "retry_masked": float(
            demo.unprotected_crashed
            and demo.protected_completed
            and demo.identical_to_clean
        ),
        "retries_used": float(demo.protected_retries),
    }

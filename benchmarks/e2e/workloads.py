"""The four deployment workloads.

All four run the paper's continuous approach, so a change to one layer
can be compared across rows. The ``why`` of each is the one-line
version of the table in ``README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.core.deployment import ContinuousDeployment
from repro.experiments.common import (
    Scenario,
    make_deployment,
    taxi_scenario,
    url_scenario,
)
from repro.obs.sink import JsonlSink
from repro.obs.telemetry import Telemetry
from repro.reliability.checkpoint import CheckpointConfig


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    dataset: str
    #: Timed repeats when the caller gives no ``--seconds``.
    repeats: int
    #: Bound the feature store to a fifth of the stream and sample
    #: uniformly, so about half of every sample is re-materialized.
    bounded_store: bool = False
    #: Attach telemetry to a JSONL file, ledger, monitor and
    #: cadence-10 checkpoints.
    stacked: bool = False

    def scenario(self, scale: str, seed: Optional[int] = None) -> Scenario:
        """The scenario at ``scale``; ``seed=None`` keeps the
        scenario's own default (URL 7, taxi 3)."""
        build = url_scenario if self.dataset == "url" else taxi_scenario
        scenario = build(scale) if seed is None else build(scale, seed)
        if self.bounded_store:
            scenario = scenario.with_continuous(
                max_materialized_chunks=scenario.num_chunks // 5,
                sampler="uniform",
            )
        return scenario

    def deploy(
        self, scenario: Scenario, run_dir: Path
    ) -> ContinuousDeployment:
        """Construct (not fit) the deployment; files go to ``run_dir``."""
        if not self.stacked:
            return make_deployment(scenario, "continuous")
        telemetry = Telemetry(sink=JsonlSink(run_dir / "trace.jsonl"))
        telemetry.attach_ledger()
        telemetry.attach_monitor()
        return make_deployment(
            scenario,
            "continuous",
            telemetry=telemetry,
            checkpoint=CheckpointConfig(
                run_dir / "checkpoints", cadence_chunks=10, keep=3
            ),
        )


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="url_continuous",
            why="Headline (Fig. 4): sparse svmlight path, row-at-a-time "
            "SVM+Adam, proactive training on cached chunks, unbounded "
            "store, nothing attached.",
            dataset="url",
            repeats=4,
        ),
        Workload(
            name="taxi_continuous",
            why="Dense path: ten components into LinearRegression+"
            "RMSProp, no hashing, no CSR; a sparse-kernel change "
            "predicts no change here.",
            dataset="taxi",
            repeats=15,
        ),
        Workload(
            name="url_remat",
            why="url_continuous with the store bounded to m/n=0.2 and "
            "uniform sampling: half of each sample is rebuilt by "
            "get_raw + transform_only, evictions on every put.",
            dataset="url",
            repeats=2,
            bounded_store=True,
        ),
        Workload(
            name="url_stack",
            why="url_continuous plus telemetry to JSONL, lineage ledger, "
            "health monitor and cadence-10 checkpoints: the stacked cost "
            "of obs + lineage + reliability.",
            dataset="url",
            repeats=2,
            stacked=True,
        ),
    )
}

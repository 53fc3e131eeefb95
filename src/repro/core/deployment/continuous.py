"""Continuous deployment — the paper's contribution, in the
Experiment-1 harness shape.

A thin adapter around
:class:`~repro.core.platform.ContinuousDeploymentPlatform` that plugs
the platform into the shared prequential loop so it can be compared
head-to-head with the online and periodical baselines.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import ContinuousConfig
from repro.core.deployment.base import Deployment, DeploymentResult
from repro.core.platform import ContinuousDeploymentPlatform, TrainingRule
from repro.data.table import Table
from repro.execution.cost import CostModel
from repro.ml.models.base import LinearSGDModel
from repro.ml.optim.base import Optimizer
from repro.ml.sgd import TrainingResult
from repro.obs.telemetry import Telemetry
from repro.pipeline.pipeline import Pipeline
from repro.utils.rng import SeedLike


class ContinuousDeployment(Deployment):
    """Online updates + scheduled proactive training on sampled history.

    ``rules`` are extra training rules for the platform, asked after
    the configured schedule (e.g. the drift response, see
    :class:`~repro.driftdetect.trigger.DriftTrigger`).
    """

    approach = "continuous"

    def __init__(
        self,
        pipeline: Pipeline,
        model: LinearSGDModel,
        optimizer: Optimizer,
        config: Optional[ContinuousConfig] = None,
        metric: str = "classification",
        cost_model: Optional[CostModel] = None,
        seed: SeedLike = None,
        telemetry: Optional[Telemetry] = None,
        checkpoint=None,
        fault_plan=None,
        retry=None,
        rules: Sequence[TrainingRule] = (),
    ) -> None:
        super().__init__(metric, telemetry, checkpoint, fault_plan, retry)
        # The deployment loop owns checkpoint cadence; the platform
        # shares the loop's injector/retrier so fault occurrence
        # counts are global across stream, storage, and checkpoint
        # sites.
        self.platform = ContinuousDeploymentPlatform(
            pipeline=pipeline,
            model=model,
            optimizer=optimizer,
            config=config,
            cost_model=cost_model,
            seed=seed,
            telemetry=self.telemetry,
            fault_plan=self.reliability.injector,
            retry=self.reliability.retrier,
            rules=rules,
        )
        self.manager = self.platform.manager
        self.engine = self.platform.engine
        self.data_manager = self.platform.data_manager

    # ------------------------------------------------------------------
    # Through the platform, not around it: it records lineage, feeds
    # the triggers and rebuilds its proactive trainer on these paths.
    # ------------------------------------------------------------------
    def initial_fit(self, tables: List[Table], **kwargs) -> TrainingResult:
        """Initial training; the initial data enters the sample pool."""
        return self.platform.initial_fit(tables, store=True, **kwargs)

    def _predict(self, table: Table) -> Tuple[np.ndarray, np.ndarray]:
        return self.platform.predict(table)

    def _record_errors(self, errors: np.ndarray) -> None:
        self.platform.record_errors(errors)

    def _observe(self, table: Table, chunk_index: int) -> None:
        self.platform.observe(table)

    def _install_artifacts(self, pipeline, model, optimizer) -> None:
        self.platform.install_artifacts(pipeline, model, optimizer)

    def _finalize(self, result: DeploymentResult) -> None:
        outcomes = self.platform.proactive_outcomes
        result.counters["proactive_trainings"] = len(outcomes)
        result.counters["chunks_sampled"] = int(
            np.sum([o.chunks for o in outcomes])
        )
        result.counters["chunks_rematerialized"] = int(
            np.sum([o.chunks - o.chunks_materialized for o in outcomes])
        )
        super()._finalize(result)
        result.training_durations = [o.duration for o in outcomes]

    def state_dict(self) -> Dict[str, Any]:
        return self.platform.state_dict()

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self.platform.load_state_dict(state)

    # ------------------------------------------------------------------
    def materialization_utilization(self) -> float:
        """Empirical μ of this run (see §3.2.2)."""
        return self.data_manager.stats.utilization()

"""Full-retraining baselines: what periodical and threshold share.

Online SGD on every chunk, the raw history kept in the data manager,
and a full retraining over that entire history whenever the subclass's
:meth:`FullRetrainingDeployment._should_retrain` says so. Warm
starting (on by default, as in the paper's experiments) carries the
pipeline statistics, model weights, and optimizer state into each
retraining; the cold variant is an ablation.

The cost signature is the paper's: each retraining re-reads and
re-preprocesses the whole history and then iterates SGD to
convergence, so the cumulative cost curve jumps at every retraining
(Figure 4(b)/(d)).
"""

from __future__ import annotations

from abc import abstractmethod
from typing import Any, Dict, List, Optional

from repro.core.config import PeriodicalConfig
from repro.core.deployment.base import Deployment, DeploymentResult
from repro.data.table import Table
from repro.execution.cost import CostModel
from repro.ml.models.base import LinearSGDModel
from repro.ml.optim.base import Optimizer
from repro.ml.sgd import TrainingResult
from repro.obs import names
from repro.obs.telemetry import Telemetry
from repro.pipeline.pipeline import Pipeline
from repro.utils.rng import SeedLike


class FullRetrainingDeployment(Deployment):
    """Online updates + full retraining on all history, when told to."""

    def __init__(
        self,
        pipeline: Pipeline,
        model: LinearSGDModel,
        optimizer: Optimizer,
        config: Optional[PeriodicalConfig] = None,
        metric: str = "classification",
        cost_model: Optional[CostModel] = None,
        seed: SeedLike = None,
        online_batch_rows: Optional[int] = None,
        telemetry: Optional[Telemetry] = None,
        checkpoint=None,
        fault_plan=None,
        retry=None,
    ) -> None:
        super().__init__(metric, telemetry, checkpoint, fault_plan, retry)
        self.config = config if config is not None else PeriodicalConfig()
        self._wire(
            pipeline, model, optimizer, cost_model, seed, online_batch_rows
        )
        self._seed = seed
        self.retrainings: List[TrainingResult] = []
        self.retrain_durations: List[float] = []

    def initial_fit(self, tables: List[Table], **kwargs) -> TrainingResult:
        """Initial training; the initial data enters the history."""
        return super().initial_fit(tables, store=True, **kwargs)

    def _observe(self, table: Table, chunk_index: int) -> None:
        __, features = self.manager.process_training_chunk(
            table, online_statistics=True, store=False
        )
        self._online_update(features)
        if self._should_retrain(chunk_index):
            self._retrain(chunk_index)

    @abstractmethod
    def _should_retrain(self, chunk_index: int) -> bool:
        """Whether a full retraining fires after this chunk."""

    def _retrain(self, chunk_index: int) -> None:
        with self.telemetry.tracer.span(
            names.PLATFORM_FULL_RETRAIN, chunk=chunk_index
        ) as span:
            started_at = self.engine.total_cost()
            result = self.manager.full_retrain(
                batch_size=self.config.batch_size,
                max_iterations=self.config.max_epoch_iterations,
                tolerance=self.config.tolerance,
                warm_start=self.config.warm_start,
                seed=self._seed,
            )
            self.retrainings.append(result)
            self.retrain_durations.append(
                self.engine.total_cost() - started_at
            )
            span.set(
                iterations=result.iterations, converged=result.converged
            )

    def _finalize(self, result: DeploymentResult) -> None:
        result.counters["online_updates"] = self.online_updates
        result.counters["retrainings"] = len(self.retrainings)
        super()._finalize(result)
        result.training_durations = list(self.retrain_durations)

    def state_dict(self) -> Dict[str, Any]:
        return {
            "online_updates": self.online_updates,
            "retrainings": list(self.retrainings),
            "retrain_durations": list(self.retrain_durations),
            **super().state_dict(),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self.online_updates = int(state["online_updates"])
        self.retrainings = list(state["retrainings"])
        self.retrain_durations = list(state["retrain_durations"])
        super().load_state_dict(state)

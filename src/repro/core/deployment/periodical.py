"""Periodical deployment baseline (§5.2, TFX/Velox-style).

Online SGD between retrainings, plus a full retraining over the entire
stored raw history every ``retrain_every_chunks`` chunks. Warm
starting (on by default, as in the paper's experiments) carries the
pipeline statistics, model weights, and optimizer state into each
retraining; the cold variant is an ablation.

The cost signature is the paper's: each retraining re-reads and
re-preprocesses the whole history and then iterates SGD to
convergence, so the cumulative cost curve jumps at every retraining
(Figure 4(b)/(d)).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import PeriodicalConfig
from repro.core.deployment.base import Deployment, DeploymentResult
from repro.core.pipeline_manager import PipelineManager
from repro.data.manager import DataManager
from repro.data.table import Table
from repro.execution.cost import CostModel
from repro.execution.engine import LocalExecutionEngine
from repro.ml.models.base import LinearSGDModel
from repro.ml.optim.base import Optimizer
from repro.ml.sgd import TrainingResult
from repro.obs import names
from repro.obs.telemetry import Telemetry
from repro.pipeline.pipeline import Pipeline
from repro.utils.rng import SeedLike


class PeriodicalDeployment(Deployment):
    """Online updates + periodic full retraining on all history."""

    approach = "periodical"

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
        super().__init__(
            metric,
            telemetry=telemetry,
            checkpoint=checkpoint,
            fault_plan=fault_plan,
            retry=retry,
        )
        self.config = config if config is not None else PeriodicalConfig()
        self.online_batch_rows = online_batch_rows
        self.engine = LocalExecutionEngine(
            cost_model, telemetry=self.telemetry
        )
        # Periodical deployment stores raw history only (it retrains
        # from raw data); no feature materialization budget applies.
        self.data_manager = DataManager(seed=seed, telemetry=self.telemetry)
        self.reliability.guard_reads(self.data_manager)
        self.manager = PipelineManager(
            pipeline=pipeline,
            model=model,
            optimizer=optimizer,
            data_manager=self.data_manager,
            engine=self.engine,
        )
        self._seed = seed
        self.online_updates = 0
        self.retrainings: List[TrainingResult] = []
        self.retrain_durations: List[float] = []

    @property
    def model(self) -> LinearSGDModel:
        return self.manager.model

    # ------------------------------------------------------------------
    def initial_fit(self, tables: List[Table], **kwargs) -> TrainingResult:
        """Initial training; the initial data enters the history."""
        return self.manager.initial_fit(tables, store=True, **kwargs)

    def _predict(self, table: Table) -> Tuple[np.ndarray, np.ndarray]:
        return self.manager.answer_queries(table)

    def _observe(self, table: Table, chunk_index: int) -> None:
        __, features = self.manager.process_training_chunk(
            table, online_statistics=True, store=False
        )
        if features.num_rows:
            self.manager.online_step(features, self.online_batch_rows)
            self.online_updates += 1
        if (chunk_index + 1) % self.config.retrain_every_chunks == 0:
            self._retrain()

    def _retrain(self) -> None:
        with self.telemetry.tracer.span(names.PLATFORM_FULL_RETRAIN) as span:
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

    def _current_cost(self) -> float:
        return self.engine.total_cost()

    def _finalize(self, result: DeploymentResult) -> None:
        result.counters["online_updates"] = self.online_updates
        result.counters["retrainings"] = len(self.retrainings)
        result.counters["retrain_iterations"] = int(
            np.sum([r.iterations for r in self.retrainings])
        )
        result.cost_breakdown = self.engine.tracker.breakdown()
        result.wall_seconds = self.engine.wall.elapsed
        result.training_durations = list(self.retrain_durations)

    # ------------------------------------------------------------------
    # Checkpoint/recovery hooks
    # ------------------------------------------------------------------
    def _artifacts(self):
        return (
            self.manager.pipeline,
            self.manager.model,
            self.manager.optimizer,
        )

    def _install_artifacts(self, pipeline, model, optimizer) -> None:
        self.manager.replace_artifacts(pipeline, model, optimizer)

    def _chunk_store(self):
        return self.data_manager.storage

    def state_dict(self) -> Dict[str, Any]:
        return {
            "online_updates": self.online_updates,
            "retrainings": list(self.retrainings),
            "retrain_durations": list(self.retrain_durations),
            "cost": self.engine.tracker.state_dict(),
            "data_manager": self.data_manager.state_dict(),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self.online_updates = int(state["online_updates"])
        self.retrainings = list(state["retrainings"])
        self.retrain_durations = list(state["retrain_durations"])
        self.engine.tracker.load_state_dict(state["cost"])
        self.data_manager.load_state_dict(state["data_manager"])

"""Online deployment baseline (§5.2).

Pure online learning: every incoming chunk is preprocessed through the
pipeline's online path and consumed by exactly one SGD step. Nothing
is stored, nothing is revisited — fast, but every data point is seen
only once, so updates are noisy (the paper's explanation for its
higher error rate).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.deployment.base import Deployment, DeploymentResult
from repro.data.table import Table
from repro.execution.cost import CostModel
from repro.execution.engine import LocalExecutionEngine
from repro.exceptions import PipelineError
from repro.ml.models.base import LinearSGDModel
from repro.ml.optim.base import Optimizer
from repro.ml.sgd import SGDTrainer, TrainingResult
from repro.obs.telemetry import Telemetry
from repro.pipeline.component import Features, union_features
from repro.pipeline.pipeline import Pipeline


class OnlineDeployment(Deployment):
    """Deploy the pipeline, update the model by online SGD only."""

    approach = "online"

    def __init__(
        self,
        pipeline: Pipeline,
        model: LinearSGDModel,
        optimizer: Optimizer,
        metric: str = "classification",
        cost_model: Optional[CostModel] = None,
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
        self.online_batch_rows = online_batch_rows
        self.pipeline = pipeline
        self._model = model
        self.optimizer = optimizer
        self.engine = LocalExecutionEngine(
            cost_model, telemetry=self.telemetry
        )
        self.trainer = SGDTrainer(model, optimizer)
        self.online_updates = 0

    @property
    def model(self) -> LinearSGDModel:
        return self._model

    # ------------------------------------------------------------------
    def initial_fit(self, tables: List[Table], **kwargs) -> TrainingResult:
        """Fit statistics on the initial data and batch-train the model."""
        if not tables:
            raise PipelineError("initial_fit needs at least one table")
        parts: List[Features] = []
        for table in tables:
            parts.append(self.engine.online_pass(self.pipeline, table))
        batch = union_features(parts)
        return self.engine.train_full(
            self.trainer, batch.matrix, batch.labels, **kwargs
        )

    def _predict(self, table: Table) -> Tuple[np.ndarray, np.ndarray]:
        features = self.engine.transform_only(self.pipeline, table)
        predictions = self.engine.predict(self._model, features.matrix)
        return predictions, np.asarray(features.labels)

    def _observe(self, table: Table, chunk_index: int) -> None:
        features = self.engine.online_pass(self.pipeline, table)
        if not features.num_rows:
            return
        rows = self.online_batch_rows
        if rows is None or rows >= features.num_rows:
            self.engine.train_step(
                self.trainer, features.matrix, features.labels
            )
        else:
            for start in range(0, features.num_rows, rows):
                stop = start + rows
                self.engine.train_step(
                    self.trainer,
                    features.matrix[start:stop],
                    features.labels[start:stop],
                )
        self.online_updates += 1

    def _current_cost(self) -> float:
        return self.engine.total_cost()

    def _finalize(self, result: DeploymentResult) -> None:
        result.counters["online_updates"] = self.online_updates
        result.cost_breakdown = self.engine.tracker.breakdown()
        result.wall_seconds = self.engine.wall.elapsed

    # ------------------------------------------------------------------
    # Checkpoint/recovery hooks
    # ------------------------------------------------------------------
    def _artifacts(self):
        return (self.pipeline, self._model, self.optimizer)

    def _install_artifacts(self, pipeline, model, optimizer) -> None:
        self.pipeline = pipeline
        self._model = model
        self.optimizer = optimizer
        self.trainer = SGDTrainer(model, optimizer)

    def state_dict(self) -> Dict[str, Any]:
        return {
            "online_updates": self.online_updates,
            "cost": self.engine.tracker.state_dict(),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self.online_updates = int(state["online_updates"])
        self.engine.tracker.load_state_dict(state["cost"])


"""Online deployment baseline (§5.2).

Pure online learning: every incoming chunk is preprocessed through the
pipeline's online path and consumed by exactly one SGD step. Nothing
is stored, nothing is revisited — fast, but every data point is seen
only once, so updates are noisy (the paper's explanation for its
higher error rate).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.core.deployment.base import Deployment, DeploymentResult
from repro.data.table import Table
from repro.execution.cost import CostModel
from repro.ml.models.base import LinearSGDModel
from repro.ml.optim.base import Optimizer
from repro.obs.telemetry import Telemetry
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
        super().__init__(metric, telemetry, checkpoint, fault_plan, retry)
        # The store stays empty and is never sampled; the fixed seed
        # only keeps its checkpointed RNG state the same run to run.
        self._wire(
            pipeline,
            model,
            optimizer,
            cost_model,
            seed=0,
            online_batch_rows=online_batch_rows,
        )

    def _observe(self, table: Table, chunk_index: int) -> None:
        self._online_update(self.manager.training_pass(table))

    def _finalize(self, result: DeploymentResult) -> None:
        result.counters["online_updates"] = self.online_updates
        super()._finalize(result)

    def state_dict(self) -> Dict[str, Any]:
        return {"online_updates": self.online_updates, **super().state_dict()}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self.online_updates = int(state["online_updates"])
        super().load_state_dict(state)

"""The full-retraining baselines (§5.2, TFX/Velox-style).

Online SGD on every chunk, the raw history kept in the data manager,
and a full retraining over that entire history whenever the
deployment's trigger says so: on a fixed period (the *periodical*
baseline, a :class:`~repro.core.scheduler.StaticScheduler`), or when
the monitored error has degraded (the Velox-style *threshold*
baseline, a :class:`~repro.core.scheduler.DegradationTrigger`). Warm
starting (on by default, as in the paper's experiments) carries the
pipeline statistics, model weights, and optimizer state into each
retraining; the cold variant is an ablation.

The cost signature is the paper's: each retraining re-reads and
re-preprocesses the whole history and then iterates SGD to
convergence, so the cumulative cost curve jumps at every retraining
(Figure 4(b)/(d)).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from repro.core.config import PeriodicalConfig
from repro.core.deployment.base import Deployment, DeploymentResult
from repro.core.scheduler import Scheduler, StaticScheduler
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
    """Online updates + full retraining on all history, when told to.

    ``trigger`` decides when; it hears every served chunk's errors and
    every retraining. Without one the deployment is the periodical
    baseline — ``StaticScheduler(config.retrain_every_chunks)`` — and
    with one ``retrain_every_chunks`` is ignored.
    """

    #: ``experiments.common.make_deployment`` relabels the
    #: degradation-triggered row ``"threshold"``.
    approach = "periodical"

    def __init__(
        self,
        pipeline: Pipeline,
        model: LinearSGDModel,
        optimizer: Optimizer,
        config: Optional[PeriodicalConfig] = None,
        trigger: Optional[Scheduler] = None,
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
        self.trigger = (
            trigger
            if trigger is not None
            else StaticScheduler(self.config.retrain_every_chunks)
        )
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
        if self.trigger.should_train(chunk_index, self._current_cost()):
            self._retrain(chunk_index)

    def _record_errors(self, errors: np.ndarray) -> None:
        self.trigger.record_errors(errors)

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
            duration = self.engine.total_cost() - started_at
            self.retrainings.append(result)
            self.retrain_durations.append(duration)
            self.trigger.record_training(started_at, duration)
            span.set(
                iterations=result.iterations, converged=result.converged
            )

    def _finalize(self, result: DeploymentResult) -> None:
        result.counters["online_updates"] = self.online_updates
        result.counters["retrainings"] = len(self.retrainings)
        result.counters["retrain_iterations"] = sum(
            r.iterations for r in self.retrainings
        )
        super()._finalize(result)
        result.training_durations = list(self.retrain_durations)

    def state_dict(self) -> Dict[str, Any]:
        return {
            "online_updates": self.online_updates,
            "retrainings": list(self.retrainings),
            "retrain_durations": list(self.retrain_durations),
            "trigger": self.trigger.state_dict(),
            **super().state_dict(),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self.online_updates = int(state["online_updates"])
        self.retrainings = list(state["retrainings"])
        self.retrain_durations = list(state["retrain_durations"])
        self.trigger.load_state_dict(state["trigger"])
        super().load_state_dict(state)

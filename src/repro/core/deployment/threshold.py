"""Velox-style threshold-triggered retraining baseline.

The paper's related work (§6) describes Velox: online learning plus a
full retraining that fires when the monitored error rate exceeds a
threshold, rather than on a fixed period. This deployment implements
that policy so it can be compared against the periodical and
continuous approaches.

The monitor is a sliding window over recent per-chunk error rates; a
retraining triggers when the windowed error exceeds
``baseline * (1 + tolerance_ratio)``, where the baseline is the
windowed error measured right after the last (re)training — i.e. the
platform retrains when quality has *degraded* relative to its own
post-training level, Velox's behaviour.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import PeriodicalConfig
from repro.core.deployment.base import Deployment, DeploymentResult
from repro.core.pipeline_manager import PipelineManager
from repro.data.manager import DataManager
from repro.data.table import Table
from repro.execution.cost import CostModel
from repro.execution.engine import LocalExecutionEngine
from repro.exceptions import ValidationError
from repro.ml.models.base import LinearSGDModel
from repro.ml.optim.base import Optimizer
from repro.ml.sgd import TrainingResult
from repro.obs import names
from repro.obs.telemetry import Telemetry
from repro.pipeline.pipeline import Pipeline
from repro.utils.rng import SeedLike


class ThresholdRetrainingDeployment(Deployment):
    """Online updates + full retraining when quality degrades.

    Parameters
    ----------
    tolerance_ratio:
        Relative degradation that triggers a retraining: with 0.1, a
        windowed error 10% above the post-training baseline fires.
    window_chunks:
        Length of the sliding error window (in chunks).
    cooldown_chunks:
        Minimum chunks between retrainings (prevents thrashing while
        the window still contains pre-retraining errors).
    min_absolute_delta:
        Absolute error increase additionally required to fire. A
        purely relative threshold is meaningless when the baseline
        error is near zero (any noise is a huge *ratio*); this floor
        keeps a well-fitted model from retraining on noise.
    config:
        Retraining settings (iterations, warm start, …); the
        ``retrain_every_chunks`` field is ignored — the monitor decides.
    """

    approach = "threshold"

    def __init__(
        self,
        pipeline: Pipeline,
        model: LinearSGDModel,
        optimizer: Optimizer,
        tolerance_ratio: float = 0.1,
        window_chunks: int = 10,
        cooldown_chunks: int = 10,
        min_absolute_delta: float = 0.01,
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
        if tolerance_ratio <= 0:
            raise ValidationError(
                f"tolerance_ratio must be > 0, got {tolerance_ratio}"
            )
        if window_chunks < 1:
            raise ValidationError(
                f"window_chunks must be >= 1, got {window_chunks}"
            )
        if cooldown_chunks < 0:
            raise ValidationError(
                f"cooldown_chunks must be >= 0, got {cooldown_chunks}"
            )
        if min_absolute_delta < 0:
            raise ValidationError(
                f"min_absolute_delta must be >= 0, "
                f"got {min_absolute_delta}"
            )
        self.tolerance_ratio = float(tolerance_ratio)
        self.window_chunks = int(window_chunks)
        self.cooldown_chunks = int(cooldown_chunks)
        self.min_absolute_delta = float(min_absolute_delta)
        self.config = config if config is not None else PeriodicalConfig()
        self.online_batch_rows = online_batch_rows
        self.engine = LocalExecutionEngine(
            cost_model, telemetry=self.telemetry
        )
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
        self._window: deque = deque(maxlen=self.window_chunks)
        self._baseline: Optional[float] = None
        self._chunks_since_retrain = 0
        self.online_updates = 0
        self.retrainings: List[TrainingResult] = []
        self.retrain_durations: List[float] = []
        #: Chunk indices at which retrainings fired (for analysis).
        self.retrain_chunks: List[int] = []

    @property
    def model(self) -> LinearSGDModel:
        return self.manager.model

    # ------------------------------------------------------------------
    def initial_fit(self, tables: List[Table], **kwargs) -> TrainingResult:
        return self.manager.initial_fit(tables, store=True, **kwargs)

    def _predict(self, table: Table) -> Tuple[np.ndarray, np.ndarray]:
        predictions, labels = self.manager.answer_queries(table)
        if len(labels):
            self._window.append(
                self._chunk_error(predictions, labels) / len(labels)
            )
        return predictions, labels

    def _observe(self, table: Table, chunk_index: int) -> None:
        __, features = self.manager.process_training_chunk(
            table, online_statistics=True, store=False
        )
        if features.num_rows:
            self.manager.online_step(features, self.online_batch_rows)
            self.online_updates += 1
        self._chunks_since_retrain += 1
        if self._should_retrain():
            self._retrain(chunk_index)

    # ------------------------------------------------------------------
    def _should_retrain(self) -> bool:
        if len(self._window) < self.window_chunks:
            return False
        if self._chunks_since_retrain < self.cooldown_chunks:
            return False
        current = self.windowed_error()
        if self._baseline is None:
            # No baseline yet: adopt the first full window as baseline.
            self._baseline = current
            return False
        degraded_relative = current > self._baseline * (
            1.0 + self.tolerance_ratio
        )
        degraded_absolute = (
            current - self._baseline > self.min_absolute_delta
        )
        return degraded_relative and degraded_absolute

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
            self.retrain_chunks.append(chunk_index)
            span.set(
                iterations=result.iterations, converged=result.converged
            )
        self._chunks_since_retrain = 0
        self._window.clear()
        self._baseline = None  # re-measured from the next full window

    def windowed_error(self) -> float:
        """Mean per-row error over the sliding window (0 when empty)."""
        if not self._window:
            return 0.0
        return float(np.mean(self._window))

    # ------------------------------------------------------------------
    def _current_cost(self) -> float:
        return self.engine.total_cost()

    def _finalize(self, result: DeploymentResult) -> None:
        result.counters["online_updates"] = self.online_updates
        result.counters["retrainings"] = len(self.retrainings)
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
            "retrain_chunks": list(self.retrain_chunks),
            "window": list(self._window),
            "baseline": self._baseline,
            "chunks_since_retrain": self._chunks_since_retrain,
            "cost": self.engine.tracker.state_dict(),
            "data_manager": self.data_manager.state_dict(),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self.online_updates = int(state["online_updates"])
        self.retrainings = list(state["retrainings"])
        self.retrain_durations = list(state["retrain_durations"])
        self.retrain_chunks = list(state["retrain_chunks"])
        self._window = deque(
            state["window"], maxlen=self.window_chunks
        )
        self._baseline = state["baseline"]
        self._chunks_since_retrain = int(state["chunks_since_retrain"])
        self.engine.tracker.load_state_dict(state["cost"])
        self.data_manager.load_state_dict(state["data_manager"])

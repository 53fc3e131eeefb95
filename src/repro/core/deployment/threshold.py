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
from repro.core.deployment.retraining import FullRetrainingDeployment
from repro.data.table import Table
from repro.execution.cost import CostModel
from repro.exceptions import ValidationError
from repro.ml.metrics import errors_from_predictions
from repro.ml.models.base import LinearSGDModel
from repro.ml.optim.base import Optimizer
from repro.obs.telemetry import Telemetry
from repro.pipeline.pipeline import Pipeline
from repro.utils.rng import SeedLike


class ThresholdRetrainingDeployment(FullRetrainingDeployment):
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
            pipeline,
            model,
            optimizer,
            config=config,
            metric=metric,
            cost_model=cost_model,
            seed=seed,
            online_batch_rows=online_batch_rows,
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
        self._window: deque = deque(maxlen=self.window_chunks)
        self._baseline: Optional[float] = None
        self._chunks_since_retrain = 0
        #: Chunk indices at which retrainings fired (for analysis).
        self.retrain_chunks: List[int] = []

    # ------------------------------------------------------------------
    def _predict(self, table: Table) -> Tuple[np.ndarray, np.ndarray]:
        predictions, labels = super()._predict(table)
        if len(labels):
            errors = errors_from_predictions(
                self.prequential.kind, predictions, labels
            )
            self._window.append(float(np.sum(errors)) / len(labels))
        return predictions, labels

    def _observe(self, table: Table, chunk_index: int) -> None:
        self._chunks_since_retrain += 1
        super()._observe(table, chunk_index)

    # ------------------------------------------------------------------
    def _should_retrain(self, chunk_index: int) -> bool:
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
        super()._retrain(chunk_index)
        self.retrain_chunks.append(chunk_index)
        self._chunks_since_retrain = 0
        self._window.clear()
        self._baseline = None  # re-measured from the next full window

    def windowed_error(self) -> float:
        """Mean per-row error over the sliding window (0 when empty)."""
        if not self._window:
            return 0.0
        return float(np.mean(self._window))

    # ------------------------------------------------------------------
    # Checkpoint/recovery hooks
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        return {
            "retrain_chunks": list(self.retrain_chunks),
            "window": list(self._window),
            "baseline": self._baseline,
            "chunks_since_retrain": self._chunks_since_retrain,
            **super().state_dict(),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self.retrain_chunks = list(state["retrain_chunks"])
        self._window = deque(
            state["window"], maxlen=self.window_chunks
        )
        self._baseline = state["baseline"]
        self._chunks_since_retrain = int(state["chunks_since_retrain"])
        super().load_state_dict(state)

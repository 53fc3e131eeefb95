"""Drift-aware continuous deployment.

Extends :class:`~repro.core.deployment.ContinuousDeployment` with
native drift detection (the paper's §7 future work): per-row
prequential errors feed a :class:`~repro.driftdetect.base.DriftDetector`,
and a detected drift triggers an *immediate* proactive-training burst
in addition to the regular schedule — the platform reacts to the
change instead of waiting for the next scheduled training.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.config import ContinuousConfig
from repro.core.deployment.base import DeploymentResult
from repro.core.deployment.continuous import ContinuousDeployment
from repro.data.sampling import WindowBasedSampler
from repro.driftdetect.base import DriftDetector, DriftState
from repro.exceptions import ValidationError
from repro.execution.cost import CostModel
from repro.ml.metrics import errors_from_predictions
from repro.ml.models.base import LinearSGDModel
from repro.ml.optim.base import Optimizer
from repro.obs import names
from repro.obs.telemetry import Telemetry
from repro.pipeline.pipeline import Pipeline
from repro.utils.rng import SeedLike


class DriftAwareContinuousDeployment(ContinuousDeployment):
    """Continuous deployment that reacts to detected concept drift.

    Parameters
    ----------
    detector:
        The drift detector fed with per-row prequential errors
        (0/1 misclassification indicators for classification, squared
        residuals for regression).
    bursts_per_drift:
        Number of extra proactive trainings fired per detected drift.
    burst_window:
        During a burst the sampler is temporarily replaced by a
        window sampler over the newest ``burst_window`` chunks —
        after a drift the useful signal lives in the freshest data,
        and the regular (wider) sampler would mostly replay the old
        concept.
    burst_delay_chunks:
        Chunks to wait between detection and the burst. Detectors
        typically fire on the *first* drifted chunk, when the chunk
        pool barely contains post-drift data yet; a short delay lets
        fresh chunks accumulate so the burst trains on the new
        concept.
    """

    approach = "continuous+drift"

    def __init__(
        self,
        pipeline: Pipeline,
        model: LinearSGDModel,
        optimizer: Optimizer,
        detector: DriftDetector,
        config: Optional[ContinuousConfig] = None,
        bursts_per_drift: int = 1,
        burst_window: int = 5,
        burst_delay_chunks: int = 4,
        metric: str = "classification",
        cost_model: Optional[CostModel] = None,
        seed: SeedLike = None,
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
            telemetry=telemetry,
            checkpoint=checkpoint,
            fault_plan=fault_plan,
            retry=retry,
        )
        if bursts_per_drift < 1:
            raise ValidationError(
                f"bursts_per_drift must be >= 1, got {bursts_per_drift}"
            )
        if burst_window < 1:
            raise ValidationError(
                f"burst_window must be >= 1, got {burst_window}"
            )
        if burst_delay_chunks < 0:
            raise ValidationError(
                f"burst_delay_chunks must be >= 0, "
                f"got {burst_delay_chunks}"
            )
        self.detector = detector
        self.bursts_per_drift = int(bursts_per_drift)
        self.burst_window = int(burst_window)
        self.burst_delay_chunks = int(burst_delay_chunks)
        #: Chunk indices at which the detector signalled drift.
        self.drift_chunks: List[int] = []
        self._burst_countdown: Optional[int] = None
        self._chunk_index = -1

    # ------------------------------------------------------------------
    def _predict(self, table) -> Tuple[np.ndarray, np.ndarray]:
        predictions, labels = super()._predict(table)
        if len(labels):
            state = self.detector.update_many(
                errors_from_predictions(
                    self.prequential.kind, predictions, labels
                )
            )
            if state is not DriftState.STABLE:
                self._record_drift_telemetry(state)
            if (
                state is DriftState.DRIFT
                and self._burst_countdown is None
            ):
                self.drift_chunks.append(self._chunk_index + 1)
                self._burst_countdown = self.burst_delay_chunks
        return predictions, labels

    def _record_drift_telemetry(self, state: DriftState) -> None:
        """Emit a ``drift.signal`` / ``drift.warning`` point event."""
        if state is DriftState.DRIFT:
            event, counter = names.DRIFT_SIGNAL, names.DRIFT_SIGNALS
        else:
            event, counter = names.DRIFT_WARNING, names.DRIFT_WARNINGS
        self.telemetry.tracer.point(
            event, chunk=self._chunk_index + 1, state=state.name
        )
        self.telemetry.metrics.counter(counter).inc()

    def _observe(self, table, chunk_index: int) -> None:
        self._chunk_index = chunk_index
        super()._observe(table, chunk_index)
        if self._burst_countdown is not None:
            if self._burst_countdown == 0:
                self._burst_countdown = None
                self._run_burst()
            else:
                self._burst_countdown -= 1

    def _run_burst(self) -> None:
        """Fire the drift response: proactive trainings on fresh data.

        The data manager's sampler is swapped for a tight window over
        the newest chunks for the duration of the burst, then
        restored — the chunk that revealed the drift is already in
        the pool, so every burst iteration trains on post-drift data.
        """
        data_manager = self.platform.data_manager
        regular_sampler = data_manager.sampler
        data_manager.sampler = WindowBasedSampler(self.burst_window)
        try:
            for __ in range(self.bursts_per_drift):
                self.platform._run_proactive_training()
        finally:
            data_manager.sampler = regular_sampler

    def _finalize(self, result: DeploymentResult) -> None:
        super()._finalize(result)
        result.counters["drifts_detected"] = len(self.drift_chunks)

    # ------------------------------------------------------------------
    # Checkpoint/recovery hooks
    # ------------------------------------------------------------------
    def state_dict(self):
        return {
            **super().state_dict(),
            "drift": {
                "detector": self.detector.state_dict(),
                "drift_chunks": list(self.drift_chunks),
                "burst_countdown": self._burst_countdown,
                "chunk_index": self._chunk_index,
            },
        }

    def load_state_dict(self, state) -> None:
        super().load_state_dict(state)
        drift = state["drift"]
        self.detector.load_state_dict(drift["detector"])
        self.drift_chunks = list(drift["drift_chunks"])
        self._burst_countdown = drift["burst_countdown"]
        self._chunk_index = int(drift["chunk_index"])

"""Drift detection as a training trigger (the paper's §7 future work).

The served chunks' per-row prequential errors feed a
:class:`~repro.driftdetect.base.DriftDetector`, and a detected drift
fires the trigger a few chunks later — the platform reacts to the
change instead of waiting for its regular schedule. What the reaction
*is* belongs to the :class:`~repro.core.platform.TrainingRule` the
trigger sits in: typically a burst of proactive trainings sampled from
a tight window over the newest chunks, because after a drift the
regular (wider) sampler would mostly replay the old concept.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from repro.core.scheduler import Scheduler
from repro.driftdetect.base import DriftDetector, DriftState
from repro.obs import names
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.utils.validation import check_non_negative_int


class DriftTrigger(Scheduler):
    """Fire ``delay_chunks`` chunks after the detector signals drift.

    Parameters
    ----------
    detector:
        The drift detector fed with per-row prequential errors
        (0/1 misclassification indicators for classification, squared
        residuals for regression).
    delay_chunks:
        Chunks to wait between detection and firing. Detectors
        typically signal on the *first* drifted chunk, when the chunk
        pool barely contains post-drift data yet; a short delay lets
        fresh chunks accumulate so the response trains on the new
        concept. Signals arriving while a firing is pending are not
        queued.
    telemetry:
        Optional observability bundle for the ``drift.signal`` /
        ``drift.warning`` points and counters.
    """

    def __init__(
        self,
        detector: DriftDetector,
        delay_chunks: int = 4,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.detector = detector
        self.delay_chunks = check_non_negative_int(
            delay_chunks, "delay_chunks"
        )
        self.telemetry = (
            telemetry if telemetry is not None else NULL_TELEMETRY
        )
        #: Chunk indices at which the detector signalled drift.
        self.drift_chunks: List[int] = []
        self._countdown: Optional[int] = None
        self._chunks_seen = 0

    @property
    def drifts_detected(self) -> int:
        """Drifts that started a countdown (pending ones not queued)."""
        return len(self.drift_chunks)

    def record_errors(self, errors: np.ndarray) -> None:
        state = self.detector.update_many(errors)
        if state is DriftState.STABLE:
            return
        if state is DriftState.DRIFT:
            event, counter = names.DRIFT_SIGNAL, names.DRIFT_SIGNALS
        else:
            event, counter = names.DRIFT_WARNING, names.DRIFT_WARNINGS
        self.telemetry.tracer.point(
            event, chunk=self._chunks_seen, state=state.name
        )
        self.telemetry.metrics.counter(counter).inc()
        if state is DriftState.DRIFT and self._countdown is None:
            self.drift_chunks.append(self._chunks_seen)
            self._countdown = self.delay_chunks

    def should_train(self, chunk_index: int, now: float) -> bool:
        self._chunks_seen = chunk_index + 1
        if self._countdown is None:
            return False
        if self._countdown:
            self._countdown -= 1
            return False
        self._countdown = None
        return True

    def state_dict(self) -> Dict[str, Any]:
        return {
            "detector": self.detector.state_dict(),
            "drift_chunks": list(self.drift_chunks),
            "countdown": self._countdown,
            "chunks_seen": self._chunks_seen,
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self.detector.load_state_dict(state["detector"])
        self.drift_chunks = list(state["drift_chunks"])
        self._countdown = state["countdown"]
        self._chunks_seen = int(state["chunks_seen"])

"""When to train (§4.1 of the paper, and §5.2's baselines).

Every decision about *when* a training runs is a :class:`Scheduler`:
asked once per ingested chunk, and told in between of the served
queries, the served chunk's per-row prequential errors and every
training that ran. What the training *is* and *which data* it reads
belong to whoever asks. Four triggers exist:

* :class:`StaticScheduler` — a fixed interval, expressed in chunks (the
  paper uses "every 5 minutes"/"every 5 hours", which at one chunk per
  minute/hour is every 5 chunks — chunks are our clock ticks). Also
  the periodical baseline's retraining period.
* :class:`DynamicScheduler` — the paper's formula (6):
  ``T' = S · T · pr · pl`` where ``T`` is the duration of the last
  proactive training, ``pr`` the average prediction-query rate, ``pl``
  the average prediction latency, and ``S`` the slack parameter. Time
  here is the deterministic cost-model clock, so behaviour is
  reproducible.
* :class:`DegradationTrigger` — Velox's rule (§6): fire when the
  windowed error has degraded relative to its level right after the
  last training. The threshold baseline's retraining decision.
* :class:`~repro.driftdetect.trigger.DriftTrigger` — a drift detector
  over the per-row errors, with a delay (lives beside the detectors).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from typing import Any, Dict, List, Optional

import numpy as np

from repro.exceptions import SchedulingError
from repro.utils.validation import (
    check_non_negative,
    check_non_negative_int,
    check_positive,
    check_positive_int,
)


class Scheduler(ABC):
    """Decides, after each ingested chunk, whether to train."""

    @abstractmethod
    def should_train(self, chunk_index: int, now: float) -> int:
        """True when a training should run now, or how many times.

        A count ``k`` runs the rule's trainings ``k`` times over (a
        bool is 0 or 1). Asked exactly once per ingested chunk, after
        that chunk's :meth:`record_errors`. ``chunk_index`` counts
        ingested deployment chunks from 0; ``now`` is the current
        virtual-clock time in cost units.
        """

    def record_training(self, started_at: float, duration: float) -> None:
        """Inform the scheduler a training just ran (its own or not)."""

    def record_predictions(self, count: int, duration: float) -> None:
        """Inform the scheduler about served prediction queries."""

    def record_errors(self, errors: np.ndarray) -> None:
        """Inform the scheduler of a served chunk's per-row prequential
        errors (``ml.metrics.errors_from_predictions``; empty when
        every row was filtered)."""

    def state_dict(self) -> Dict[str, Any]:
        """Mutable scheduling state (configuration is *not* included).

        Restoring this into a scheduler constructed with the same
        configuration reproduces its future decisions exactly — the
        contract checkpoint/recovery relies on.
        """
        return {}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore state captured by :meth:`state_dict`."""


class StaticScheduler(Scheduler):
    """Run proactive training every ``interval_chunks`` chunks.

    The first eligible chunk is ``interval_chunks - 1`` (i.e. after
    every full interval), so an interval of 1 trains on every chunk.
    """

    def __init__(self, interval_chunks: int) -> None:
        self.interval_chunks = check_positive_int(
            interval_chunks, "interval_chunks"
        )

    def should_train(self, chunk_index: int, now: float) -> bool:
        if chunk_index < 0:
            raise SchedulingError(
                f"chunk_index must be >= 0, got {chunk_index}"
            )
        return (chunk_index + 1) % self.interval_chunks == 0

    def __repr__(self) -> str:
        return f"StaticScheduler(interval_chunks={self.interval_chunks})"


class DynamicScheduler(Scheduler):
    """Tune the training interval from observed rates — formula (6).

    After each proactive training of duration ``T`` ending at time
    ``t``, the next training is scheduled at ``t + S·T·pr·pl``.
    ``pr`` and ``pl`` are running averages over everything observed so
    far. Until the first training completes (no ``T`` yet), an
    ``initial_interval`` in virtual seconds applies.

    A small slack (1 ≤ S < 2) trains aggressively; a large slack
    (S ≥ 2) reserves resources for query answering (§4.1).
    """

    def __init__(
        self,
        slack: float = 2.0,
        initial_interval: float = 1.0,
    ) -> None:
        self.slack = check_positive(slack, "slack")
        if self.slack < 1.0:
            raise SchedulingError(
                f"slack must be >= 1 (got {slack}); smaller values "
                f"would schedule training before pending queries finish"
            )
        self.initial_interval = check_positive(
            initial_interval, "initial_interval"
        )
        self._next_time = initial_interval
        self._prediction_count = 0
        self._prediction_duration = 0.0
        self._clock_origin: float | None = None

    # ------------------------------------------------------------------
    def should_train(self, chunk_index: int, now: float) -> bool:
        if self._clock_origin is None:
            self._clock_origin = now
            self._next_time = now + self.initial_interval
        return now >= self._next_time

    def record_training(self, started_at: float, duration: float) -> None:
        if duration < 0:
            raise SchedulingError(
                f"training duration must be >= 0, got {duration}"
            )
        interval = (
            self.slack
            * duration
            * self.prediction_rate()
            * self.prediction_latency()
        )
        if interval <= 0.0:
            # No prediction traffic observed yet: fall back to the
            # initial interval so training still proceeds.
            interval = self.initial_interval
        self._next_time = started_at + duration + interval

    def record_predictions(self, count: int, duration: float) -> None:
        if count < 0 or duration < 0:
            raise SchedulingError(
                f"invalid prediction record: count={count}, "
                f"duration={duration}"
            )
        self._prediction_count += count
        self._prediction_duration += duration

    # ------------------------------------------------------------------
    def prediction_rate(self) -> float:
        """Average queries per virtual second observed so far (``pr``)."""
        if self._prediction_duration <= 0.0:
            return 0.0
        return self._prediction_count / self._prediction_duration

    def prediction_latency(self) -> float:
        """Average virtual seconds per query (``pl``)."""
        if self._prediction_count == 0:
            return 0.0
        return self._prediction_duration / self._prediction_count

    def state_dict(self) -> Dict[str, Any]:
        return {
            "next_time": self._next_time,
            "prediction_count": self._prediction_count,
            "prediction_duration": self._prediction_duration,
            "clock_origin": self._clock_origin,
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self._next_time = float(state["next_time"])
        self._prediction_count = int(state["prediction_count"])
        self._prediction_duration = float(state["prediction_duration"])
        origin = state["clock_origin"]
        self._clock_origin = None if origin is None else float(origin)

    @property
    def next_training_time(self) -> float:
        """Virtual time at/after which the next training fires."""
        return self._next_time

    def __repr__(self) -> str:
        return (
            f"DynamicScheduler(slack={self.slack}, "
            f"next={self._next_time:.4f})"
        )


class DegradationTrigger(Scheduler):
    """Fire when quality has degraded since the last training (Velox).

    A sliding window over recent per-chunk error rates; the first full
    window after a training (and its cooldown) is adopted as the
    *baseline*, and the trigger fires when the windowed error exceeds
    ``baseline * (1 + tolerance_ratio)`` — quality has degraded
    relative to the model's own post-training level. Any training
    clears window and baseline.

    Parameters
    ----------
    tolerance_ratio:
        Relative degradation that fires: with 0.1, a windowed error
        10% above the post-training baseline.
    window_chunks:
        Length of the sliding error window (in chunks).
    cooldown_chunks:
        Minimum chunks between a training and the next firing
        (prevents thrashing while the window still contains
        pre-training errors).
    min_absolute_delta:
        Absolute error increase additionally required to fire. A
        purely relative threshold is meaningless when the baseline
        error is near zero (any noise is a huge *ratio*); this floor
        keeps a well-fitted model from retraining on noise.
    """

    def __init__(
        self,
        tolerance_ratio: float = 0.1,
        window_chunks: int = 10,
        cooldown_chunks: int = 10,
        min_absolute_delta: float = 0.01,
    ) -> None:
        self.tolerance_ratio = check_positive(
            tolerance_ratio, "tolerance_ratio"
        )
        self.window_chunks = check_positive_int(
            window_chunks, "window_chunks"
        )
        self.cooldown_chunks = check_non_negative_int(
            cooldown_chunks, "cooldown_chunks"
        )
        self.min_absolute_delta = check_non_negative(
            min_absolute_delta, "min_absolute_delta"
        )
        self._window: deque = deque(maxlen=self.window_chunks)
        self._baseline: Optional[float] = None
        self._chunks_since_training = 0
        #: Chunk indices at which this trigger fired (for analysis).
        self.retrain_chunks: List[int] = []

    def record_errors(self, errors: np.ndarray) -> None:
        if len(errors):
            self._window.append(float(np.sum(errors)) / len(errors))

    def should_train(self, chunk_index: int, now: float) -> bool:
        self._chunks_since_training += 1
        if len(self._window) < self.window_chunks:
            return False
        if self._chunks_since_training < self.cooldown_chunks:
            return False
        current = self.windowed_error()
        if self._baseline is None:
            # No baseline yet: adopt the first full window as baseline.
            self._baseline = current
            return False
        fired = (
            current > self._baseline * (1.0 + self.tolerance_ratio)
            and current - self._baseline > self.min_absolute_delta
        )
        if fired:
            self.retrain_chunks.append(chunk_index)
        return fired

    def record_training(self, started_at: float, duration: float) -> None:
        self._chunks_since_training = 0
        self._window.clear()
        self._baseline = None  # re-measured from the next full window

    def windowed_error(self) -> float:
        """Mean per-row error over the sliding window (0 when empty)."""
        if not self._window:
            return 0.0
        return float(np.mean(self._window))

    def state_dict(self) -> Dict[str, Any]:
        return {
            "retrain_chunks": list(self.retrain_chunks),
            "window": list(self._window),
            "baseline": self._baseline,
            "chunks_since_training": self._chunks_since_training,
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self.retrain_chunks = list(state["retrain_chunks"])
        self._window = deque(state["window"], maxlen=self.window_chunks)
        self._baseline = state["baseline"]
        self._chunks_since_training = int(state["chunks_since_training"])

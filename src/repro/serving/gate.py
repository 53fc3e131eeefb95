"""Quality gate: decides promote / keep-watching / roll back.

Two comparison modes cover the rollout lifecycle:

* :class:`QualityGate` — *staged* comparison. While a candidate is in
  shadow or canary, every served batch contributes paired error
  observations (candidate rows vs incumbent rows over the same
  traffic). The gate promotes on a *sustained* win — the candidate
  must be at least ``promote_margin`` better for ``promote_after``
  consecutive evaluations — and signals rollback on a sustained
  regression or when the drift detector fires on the candidate's
  error stream.
* :class:`BaselineMonitor` — *post-promotion* watch. After a
  promotion, the incumbent's error level at decision time is frozen
  as the baseline; if the newly-live version regresses past
  ``rollback_margin`` for ``rollback_after`` consecutive batches, the
  monitor signals rollback.

Error aggregation follows :mod:`repro.ml.metrics`: ``"rate"`` for
classification (mean 0/1 errors), ``"rmse"`` for regression (root
mean squared residual — RMSLE when the model works in log space);
its per-row ``errors_from_predictions`` is re-exported here.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.driftdetect.window import WindowComparisonDetector
from repro.driftdetect.base import DriftState
from repro.exceptions import ServingError
from repro.ml.metrics import errors_from_predictions  # noqa: F401


class GateDecision(enum.Enum):
    """Verdict after folding in one batch of paired observations."""

    CONTINUE = "continue"
    PROMOTE = "promote"
    ROLLBACK = "rollback"


@dataclass(frozen=True)
class GateConfig:
    """Thresholds of the promotion state machine.

    Parameters
    ----------
    min_samples:
        Rows each side must accumulate before any verdict — protects
        against deciding on noise from the first few batches.
    promote_after:
        Consecutive winning evaluations required to promote
        (a *sustained* win, one evaluation per served batch).
    promote_margin:
        Relative improvement required to count a win: 0.05 means the
        candidate error must be ≥5% below the incumbent's.
    rollback_after:
        Consecutive regressing evaluations required to roll back.
    rollback_margin:
        Relative regression that counts as a strike: 0.1 means ≥10%
        above the incumbent (or baseline) error.
    drift_window:
        Window length of the drift detector run over the candidate's
        per-row error stream; a DRIFT verdict forces rollback
        immediately, bypassing the strike counter.
    drift_ratio:
        Relative degradation the drift detector fires at.
    """

    min_samples: int = 200
    promote_after: int = 3
    promote_margin: float = 0.0
    rollback_after: int = 2
    rollback_margin: float = 0.1
    drift_window: int = 50
    drift_ratio: float = 0.5

    def __post_init__(self) -> None:
        if self.min_samples < 1:
            raise ServingError(
                f"min_samples must be >= 1, got {self.min_samples}"
            )
        if self.promote_after < 1 or self.rollback_after < 1:
            raise ServingError(
                "promote_after and rollback_after must be >= 1"
            )
        if self.promote_margin < 0 or self.rollback_margin < 0:
            raise ServingError(
                "promote_margin and rollback_margin must be >= 0"
            )


def _aggregate(kind: str, error_sum: float, count: int) -> float:
    """Error sum + count → comparable scalar (rate or RMSE)."""
    if count == 0:
        return 0.0
    mean = error_sum / count
    return math.sqrt(mean) if kind == "rmse" else mean


class QualityGate:
    """Staged candidate-vs-incumbent comparison (see module docs).

    Parameters
    ----------
    kind:
        ``"rate"`` or ``"rmse"`` — how error sums aggregate.
    config:
        Decision thresholds.
    """

    def __init__(
        self, kind: str = "rate", config: Optional[GateConfig] = None
    ) -> None:
        if kind not in ("rate", "rmse"):
            raise ServingError(
                f"kind must be 'rate' or 'rmse', got {kind!r}"
            )
        self.kind = kind
        self.config = config if config is not None else GateConfig()
        self._candidate_error = 0.0
        self._candidate_count = 0
        self._incumbent_error = 0.0
        self._incumbent_count = 0
        self._win_streak = 0
        self._strike_count = 0
        self._evaluations = 0
        self.detector = WindowComparisonDetector(
            window_size=self.config.drift_window,
            ratio=self.config.drift_ratio,
        )

    # ------------------------------------------------------------------
    def observe(
        self,
        candidate_errors: np.ndarray,
        incumbent_errors: np.ndarray,
    ) -> GateDecision:
        """Fold in one batch of per-row errors; return the verdict.

        Either array may be empty (a canary batch can route all rows
        to one side); the gate simply keeps accumulating.
        """
        candidate_errors = np.asarray(candidate_errors, dtype=np.float64)
        incumbent_errors = np.asarray(incumbent_errors, dtype=np.float64)
        self._candidate_error += float(candidate_errors.sum())
        self._candidate_count += candidate_errors.size
        self._incumbent_error += float(incumbent_errors.sum())
        self._incumbent_count += incumbent_errors.size
        drifted = (
            self.detector.update_many(candidate_errors)
            is DriftState.DRIFT
            if candidate_errors.size
            else False
        )
        if (
            self._candidate_count < self.config.min_samples
            or self._incumbent_count < self.config.min_samples
        ):
            return GateDecision.CONTINUE
        self._evaluations += 1
        candidate = self.candidate_value()
        incumbent = self.incumbent_value()
        degradation = (candidate - incumbent) / max(incumbent, 1e-12)
        if drifted or degradation > self.config.rollback_margin:
            self._win_streak = 0
            self._strike_count += 1
            if drifted or self._strike_count >= self.config.rollback_after:
                return GateDecision.ROLLBACK
            return GateDecision.CONTINUE
        if degradation <= -self.config.promote_margin:
            self._strike_count = 0
            self._win_streak += 1
            if self._win_streak >= self.config.promote_after:
                return GateDecision.PROMOTE
            return GateDecision.CONTINUE
        self._win_streak = 0
        self._strike_count = 0
        return GateDecision.CONTINUE

    # ------------------------------------------------------------------
    def candidate_value(self) -> float:
        return _aggregate(
            self.kind, self._candidate_error, self._candidate_count
        )

    def incumbent_value(self) -> float:
        return _aggregate(
            self.kind, self._incumbent_error, self._incumbent_count
        )

    @property
    def samples(self) -> tuple:
        """(candidate_rows, incumbent_rows) accumulated so far."""
        return self._candidate_count, self._incumbent_count

    def __repr__(self) -> str:
        return (
            f"QualityGate(kind={self.kind!r}, "
            f"candidate={self.candidate_value():.4f}/"
            f"{self._candidate_count}, "
            f"incumbent={self.incumbent_value():.4f}/"
            f"{self._incumbent_count})"
        )


class BaselineMonitor:
    """Post-promotion regression watch against a frozen baseline.

    Parameters
    ----------
    baseline:
        The error level the newly-live version must hold (typically
        the incumbent's value when the promotion decision was made).
    kind, config:
        As in :class:`QualityGate`; ``rollback_margin`` and
        ``rollback_after`` apply per *batch* here, evaluated over a
        sliding window of ``drift_window`` recent rows.
    """

    def __init__(
        self,
        baseline: float,
        kind: str = "rate",
        config: Optional[GateConfig] = None,
    ) -> None:
        if baseline < 0:
            raise ServingError(
                f"baseline must be >= 0, got {baseline}"
            )
        self.baseline = float(baseline)
        self.kind = kind
        self.config = config if config is not None else GateConfig()
        self._recent: list = []
        self._strike_count = 0

    def observe(self, live_errors: np.ndarray) -> GateDecision:
        """Fold in the live version's per-row errors for one batch."""
        live_errors = np.asarray(live_errors, dtype=np.float64)
        if live_errors.size:
            self._recent.extend(live_errors.tolist())
            overflow = len(self._recent) - self.config.drift_window
            if overflow > 0:
                del self._recent[:overflow]
        if len(self._recent) < min(
            self.config.min_samples, self.config.drift_window
        ):
            return GateDecision.CONTINUE
        value = _aggregate(
            self.kind, float(np.sum(self._recent)), len(self._recent)
        )
        floor = max(self.baseline, 1e-12)
        if (value - self.baseline) / floor > self.config.rollback_margin:
            self._strike_count += 1
            if self._strike_count >= self.config.rollback_after:
                return GateDecision.ROLLBACK
        else:
            self._strike_count = 0
        return GateDecision.CONTINUE

    def value(self) -> float:
        """Current windowed error of the live version."""
        if not self._recent:
            return 0.0
        return _aggregate(
            self.kind, float(np.sum(self._recent)), len(self._recent)
        )

    def __repr__(self) -> str:
        return (
            f"BaselineMonitor(baseline={self.baseline:.4f}, "
            f"value={self.value():.4f})"
        )

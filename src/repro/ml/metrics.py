"""Evaluation metrics and prequential error tracking.

The paper evaluates the URL model by misclassification rate and the
Taxi model by Root Mean Squared Logarithmic Error (RMSLE), and reports
the *cumulative prequential* error over the deployment (Dawid 1984):
each chunk is first used for testing, then for training, and the error
accumulates over all chunks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.exceptions import ValidationError


def _check_pair(y_true: np.ndarray, y_pred: np.ndarray) -> tuple:
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    if y_true.shape != y_pred.shape:
        raise ValidationError(
            f"shape mismatch: y_true {y_true.shape} vs y_pred "
            f"{y_pred.shape}"
        )
    if y_true.size == 0:
        raise ValidationError("metric evaluated on empty arrays")
    return y_true, y_pred


def misclassification_rate(
    y_true: np.ndarray, y_pred: np.ndarray
) -> float:
    """Fraction of labels predicted incorrectly (URL metric)."""
    y_true, y_pred = _check_pair(y_true, y_pred)
    return float(np.mean(y_true != y_pred))


def accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """1 − misclassification rate."""
    return 1.0 - misclassification_rate(y_true, y_pred)


def mean_squared_error(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Mean squared error."""
    y_true, y_pred = _check_pair(y_true, y_pred)
    residual = y_pred - y_true
    return float(np.mean(residual * residual))


def rmsle(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Root Mean Squared Logarithmic Error on raw (>= 0) targets.

    ``sqrt(mean((log1p(pred) − log1p(true))²))`` — the Kaggle metric
    the Taxi pipeline optimizes. Negative predictions are clipped to 0
    (a negative duration is a model error, not a math error).
    """
    y_true, y_pred = _check_pair(y_true, y_pred)
    if np.any(y_true < 0):
        raise ValidationError("rmsle requires non-negative true targets")
    log_true = np.log1p(y_true)
    log_pred = np.log1p(np.maximum(y_pred, 0.0))
    return float(np.sqrt(np.mean((log_pred - log_true) ** 2)))


def rmsle_from_log(
    log_true: np.ndarray, log_pred: np.ndarray
) -> float:
    """RMSLE when both arrays are already in ``log1p`` space.

    The Taxi model trains on ``log1p(duration)``, so its RMSLE is plain
    RMSE in that space.
    """
    log_true, log_pred = _check_pair(log_true, log_pred)
    return float(np.sqrt(np.mean((log_pred - log_true) ** 2)))


def metric_kind(metric: str) -> str:
    """Error aggregation of a deployment metric.

    ``"classification"`` aggregates as ``"rate"``, ``"regression"`` as
    ``"rmse"`` (RMSLE when the model works in log space).
    """
    if metric == "classification":
        return "rate"
    if metric == "regression":
        return "rmse"
    raise ValidationError(
        f"metric must be 'classification' or 'regression', got {metric!r}"
    )


def errors_from_predictions(
    kind: str, predictions: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """Per-row error contributions for ``kind``.

    ``"rate"`` — 0/1 misclassification indicators; ``"rmse"`` —
    squared residuals. Summing these and dividing by the row count
    reproduces the library's metric definitions exactly.
    """
    if kind == "rate":
        return (
            np.asarray(predictions) != np.asarray(labels)
        ).astype(np.float64)
    residual = np.asarray(predictions, dtype=np.float64) - np.asarray(
        labels, dtype=np.float64
    )
    return residual * residual


@dataclass
class PrequentialTracker:
    """Cumulative prequential error over a deployment.

    Chunks report their per-chunk error *sum* and row count (for rate
    metrics, error sum = number of misclassified rows; for RMSLE, the
    sum of squared log errors). The cumulative value is then the
    error aggregated over every prediction made so far:

    * ``kind="rate"`` — cumulative error = total errors / total rows.
    * ``kind="rmse"`` — cumulative error = sqrt(total sq. error / rows).

    :attr:`history` records the cumulative value after every chunk —
    the series plotted in Figures 4(a)/4(c) of the paper.
    """

    kind: str = "rate"
    total_error: float = 0.0
    total_count: int = 0
    history: List[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.kind not in ("rate", "rmse"):
            raise ValidationError(
                f"kind must be 'rate' or 'rmse', got {self.kind!r}"
            )

    @classmethod
    def for_metric(cls, metric: str) -> "PrequentialTracker":
        """Tracker for ``"classification"`` or ``"regression"``."""
        return cls(kind=metric_kind(metric))

    def score(
        self, predictions: np.ndarray, labels: np.ndarray
    ) -> Optional[float]:
        """Score one served chunk; returns its mean per-row error."""
        return self.score_errors(
            errors_from_predictions(self.kind, predictions, labels)
        )

    def score_errors(self, errors: np.ndarray) -> Optional[float]:
        """Score a chunk by its :func:`errors_from_predictions` rows.

        A chunk that came out of the serving path empty (every row
        filtered) measures nothing: the previous cumulative value is
        carried forward so :attr:`history` stays aligned with chunk
        indices, and ``None`` is returned.
        """
        count = len(errors)
        if not count:
            self.history.append(self.value())
            return None
        error_sum = float(np.sum(errors))
        self.add_chunk(error_sum, count)
        return error_sum / count

    def add_chunk(self, error_sum: float, count: int) -> float:
        """Record one chunk's error; returns the new cumulative value."""
        if count < 1:
            raise ValidationError(f"chunk count must be >= 1, got {count}")
        if error_sum < 0:
            raise ValidationError(
                f"error sum must be >= 0, got {error_sum}"
            )
        self.total_error += float(error_sum)
        self.total_count += int(count)
        self.history.append(self.value())
        return self.history[-1]

    def state_dict(self) -> dict:
        """Cumulative error state for checkpoint/recovery."""
        return {
            "kind": self.kind,
            "total_error": self.total_error,
            "total_count": self.total_count,
            "history": list(self.history),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`."""
        if state["kind"] != self.kind:
            raise ValidationError(
                f"cannot restore a {state['kind']!r} tracker into a "
                f"{self.kind!r} tracker"
            )
        self.total_error = float(state["total_error"])
        self.total_count = int(state["total_count"])
        self.history = list(state["history"])

    def value(self) -> float:
        """Current cumulative prequential error."""
        if not self.total_count:
            return 0.0
        mean_error = self.total_error / self.total_count
        if self.kind == "rmse":
            return float(np.sqrt(mean_error))
        return float(mean_error)

"""Loss functions for linear models.

Each loss works on the model's decision values ``z = Xw + b`` and the
targets ``y``, exposing the mean loss and the derivative ``dL/dz``
needed for the SGD chain rule (``grad_w = Xᵀ (dL/dz) / n``).

Classification losses (:class:`HingeLoss`, :class:`LogisticLoss`)
expect labels in {-1, +1}, the convention of the paper's SVM and
ad-click references.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.exceptions import ValidationError


class Loss(ABC):
    """A differentiable (a.e.) per-example loss on decision values."""

    #: Identifier used in configs and reports.
    name: str = "base"

    #: Whether the loss expects {-1, +1} labels.
    is_classification: bool = False

    @abstractmethod
    def value(self, decision: np.ndarray, targets: np.ndarray) -> float:
        """Mean loss over the batch."""

    def dvalue(self, decision: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Per-example derivative ``dL/dz`` (same shape as ``decision``)."""
        self._check(decision, targets)
        return self._dvalue(decision, targets)

    @abstractmethod
    def _dvalue(self, decision: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """:meth:`dvalue` on shapes the caller has checked already."""

    @staticmethod
    def _check(decision: np.ndarray, targets: np.ndarray) -> None:
        if decision.shape != targets.shape:
            raise ValidationError(
                f"decision shape {decision.shape} != targets shape "
                f"{targets.shape}"
            )
        if decision.size == 0:
            raise ValidationError("loss evaluated on an empty batch")

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SquaredLoss(Loss):
    """Least squares: ``L = ½ (z − y)²`` — the paper's equation (1)."""

    name = "squared"

    def value(self, decision: np.ndarray, targets: np.ndarray) -> float:
        self._check(decision, targets)
        residual = decision - targets
        return float(0.5 * _mean(residual * residual))

    def _dvalue(self, decision: np.ndarray, targets: np.ndarray) -> np.ndarray:
        return decision - targets


class HingeLoss(Loss):
    """SVM hinge: ``L = max(0, 1 − y z)`` with labels in {-1, +1}."""

    name = "hinge"
    is_classification = True

    def value(self, decision: np.ndarray, targets: np.ndarray) -> float:
        self._check(decision, targets)
        margins = 1.0 - targets * decision
        return float(_mean(np.maximum(margins, 0.0)))

    def _dvalue(self, decision: np.ndarray, targets: np.ndarray) -> np.ndarray:
        active = (targets * decision) < 1.0
        return np.where(active, -targets, 0.0)


class LogisticLoss(Loss):
    """Logistic: ``L = log(1 + exp(−y z))`` with labels in {-1, +1}.

    Implemented with ``log1p``/clipped exponentials for numerical
    stability at extreme margins.
    """

    name = "logistic"
    is_classification = True

    def value(self, decision: np.ndarray, targets: np.ndarray) -> float:
        self._check(decision, targets)
        margins = targets * decision
        # log(1 + e^-m) computed stably for both signs of m.
        return float(_mean(np.logaddexp(0.0, -margins)))

    def _dvalue(self, decision: np.ndarray, targets: np.ndarray) -> np.ndarray:
        margins = targets * decision
        return -targets * sigmoid(-margins)


def _mean(values: np.ndarray) -> np.float64:
    """``np.mean`` of a non-empty ``float64`` array — the same
    pairwise sum and division, without its Python wrapper."""
    return np.add.reduce(values, axis=None) / values.size


def sigmoid(values: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid."""
    out = np.empty_like(values, dtype=np.float64)
    positive = values >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-values[positive]))
    exp_vals = np.exp(values[~positive])
    out[~positive] = exp_vals / (1.0 + exp_vals)
    return out

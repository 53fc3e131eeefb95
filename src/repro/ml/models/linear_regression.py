"""Linear regression on squared loss (paper §2.1, equation (1)).

Used by the Taxi pipeline to predict ``log1p(trip duration)``; the
RMSLE evaluation metric then is simply RMSE in the model's output
space (see :func:`repro.ml.metrics.rmsle_from_log`).
"""

from __future__ import annotations

from repro.ml.losses import SquaredLoss
from repro.ml.models.base import LinearSGDModel


class LinearRegression(LinearSGDModel):
    """Least-squares linear model."""

    task = "regression"
    loss_type = SquaredLoss

"""Logistic regression with {-1, +1} labels."""

from __future__ import annotations

import numpy as np

from repro.ml.losses import LogisticLoss, sigmoid
from repro.ml.models.base import LinearSGDModel, Matrix


class LogisticRegression(LinearSGDModel):
    """Binary linear classifier on the logistic loss.

    ``predict`` returns hard labels in {-1, +1};
    ``predict_proba`` the probability of the +1 class.
    """

    task = "classification"
    loss_type = LogisticLoss

    def predict_proba(self, features: Matrix) -> np.ndarray:
        """P(label = +1) per row."""
        return sigmoid(self.decision_function(features))

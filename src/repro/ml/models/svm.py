"""Linear support vector machine (hinge loss).

The URL pipeline's model: a linear SVM trained by SGD on the hinge
loss with L2 regularization, as in MLlib's ``SVMWithSGD`` which the
paper's prototype used.
"""

from __future__ import annotations

from repro.ml.losses import HingeLoss
from repro.ml.models.base import LinearSGDModel


class LinearSVM(LinearSGDModel):
    """Binary linear SVM with {-1, +1} labels."""

    task = "classification"
    loss_type = HingeLoss

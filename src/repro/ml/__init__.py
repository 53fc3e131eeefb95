"""From-scratch SGD machine learning stack.

Linear models (SVM, linear and logistic regression) trained by
mini-batch stochastic gradient descent with the per-coordinate adaptive
learning rates the paper evaluates (Adam, RMSProp, AdaDelta), plus
Momentum/AdaGrad/constant for completeness. Everything accepts dense
``ndarray`` or sparse CSR feature matrices.
"""

from repro.ml.batch import Block, predict_batch, split_rows, stack_matrices
from repro.ml.losses import HingeLoss, LogisticLoss, Loss, SquaredLoss
from repro.ml.metrics import (
    PrequentialTracker,
    accuracy,
    mean_absolute_error,
    mean_squared_error,
    misclassification_rate,
    rmsle,
    rmsle_from_log,
)
from repro.ml.models import (
    LinearRegression,
    LinearSGDModel,
    LinearSVM,
    LogisticRegression,
)
from repro.ml.optim import (
    AdaDelta,
    AdaGrad,
    Adam,
    ConstantLR,
    InverseScalingLR,
    Momentum,
    Optimizer,
    RMSProp,
    make_optimizer,
)
from repro.ml.regularizers import L1, L2, NoRegularizer, Regularizer
from repro.ml.sgd import SGDTrainer, TrainingResult

__all__ = [
    "Loss",
    "SquaredLoss",
    "HingeLoss",
    "LogisticLoss",
    "Regularizer",
    "L1",
    "L2",
    "NoRegularizer",
    "Optimizer",
    "ConstantLR",
    "InverseScalingLR",
    "Momentum",
    "AdaGrad",
    "RMSProp",
    "AdaDelta",
    "Adam",
    "make_optimizer",
    "LinearSGDModel",
    "LinearRegression",
    "LogisticRegression",
    "LinearSVM",
    "SGDTrainer",
    "TrainingResult",
    "Block",
    "predict_batch",
    "split_rows",
    "stack_matrices",
    "misclassification_rate",
    "accuracy",
    "mean_squared_error",
    "mean_absolute_error",
    "rmsle",
    "rmsle_from_log",
    "PrequentialTracker",
]

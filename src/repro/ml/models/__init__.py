"""Models trained by SGD.

Linear models (regression, logistic, SVM) share the
:class:`LinearSGDModel` interface the deployment platform drives.
"""

from repro.ml.models.base import LinearSGDModel
from repro.ml.models.linear_regression import LinearRegression
from repro.ml.models.logistic_regression import LogisticRegression
from repro.ml.models.svm import LinearSVM

__all__ = [
    "LinearSGDModel",
    "LinearRegression",
    "LogisticRegression",
    "LinearSVM",
]

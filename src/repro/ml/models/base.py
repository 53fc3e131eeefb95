"""Base class for SGD-trainable linear models.

A linear model keeps a weight vector and intercept and exposes the
``update``-style gradient interface the paper requires of deployed
models (§4.4: "the machine learning model component of the deployed
pipeline must implement an update method, which is responsible for
computing the gradient").

Parameters are also exposed as a single packed vector
(``[weights…, intercept]``) so an :class:`~repro.ml.optim.Optimizer`
can treat the model as one coordinate array — which is exactly what the
per-coordinate adaptation methods need.

Feature matrices may be dense ``ndarray`` or ``scipy.sparse`` CSR, and
every kernel runs over a *row range* ``[start, stop)`` of one. Three
cases, chosen by what the caller handed over, all with the same bits:

* a proper range of a CSR (the per-row online update) is read from the
  matrix's own ``indptr/indices/data`` and reduced with ``np.bincount``,
  which accumulates in stored-entry order — the order of scipy's
  ``csr_matvec`` / ``csc_matvec`` — so no scipy object is built per
  range;
* a whole sparse matrix (prediction, proactive training, full
  retraining) has nothing to slice and goes to those scipy routines as
  it is: on thousands of rows their C loop is ~9x faster than the
  ``bincount`` spelling, which pays for itself only by what it skips;
* a dense range is the numpy view ``X[start:stop]``: per-row
  ``np.add.reduce`` scores, ``view.T @ d`` column sums.
"""

from __future__ import annotations

import copy
from typing import Dict, Optional, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.exceptions import NotFittedError, ValidationError
from repro.ml.losses import Loss
from repro.ml.regularizers import NoRegularizer, Regularizer
from repro.utils.validation import check_positive_int

Matrix = Union[np.ndarray, sp.csr_matrix]


class LinearSGDModel:
    """A linear model ``z = X w + b`` trained by (mini-batch) SGD.

    Parameters
    ----------
    num_features:
        Dimensionality of the weight vector. Fixed at construction —
        the pipelines guarantee a stable feature width (hashing /
        assembly), matching the deployment setting.
    loss:
        The per-example loss driving the gradient.
    regularizer:
        Penalty on the weights (never the intercept).
    fit_intercept:
        Learn a bias term (default true).
    """

    #: Task flavour, set by subclasses ("regression" / "classification").
    task: str = "regression"

    def __init__(
        self,
        num_features: int,
        loss: Loss,
        regularizer: Optional[Regularizer] = None,
        fit_intercept: bool = True,
    ) -> None:
        self.num_features = check_positive_int(num_features, "num_features")
        self.loss = loss
        self.regularizer = (
            regularizer if regularizer is not None else NoRegularizer()
        )
        self.fit_intercept = fit_intercept
        self.weights = np.zeros(self.num_features, dtype=np.float64)
        self.intercept = 0.0
        #: Number of SGD updates applied so far.
        self.updates_applied = 0

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def decision_function(
        self, features: Matrix, start: int = 0, stop: Optional[int] = None
    ) -> np.ndarray:
        """Raw decision values ``X w + b`` of rows ``[start, stop)``.

        Every kernel reduces each row independently and in an order
        fixed by the row alone — stored-entry order for sparse (scipy's
        or the range kernel's), a per-row ``np.add.reduce`` for dense
        instead of BLAS ``X @ w`` (gemv kernels block over *rows*, so a
        row's low bits would depend on how many rows share the call).
        That is the serving guarantee: a micro-batched prediction is
        bit-identical to the same row served alone.
        """
        return self._forward(features, start, stop)[0]

    def predict(self, features: Matrix) -> np.ndarray:
        """Task-specific predictions; subclasses refine."""
        return self.decision_function(features)

    # ------------------------------------------------------------------
    # Training interface
    # ------------------------------------------------------------------
    def gradient(
        self,
        features: Matrix,
        targets: np.ndarray,
        start: int = 0,
        stop: Optional[int] = None,
    ) -> tuple[np.ndarray, float]:
        """Mean-gradient of loss+penalty on rows ``[start, stop)`` of
        ``(features, targets)``, packed, plus loss.

        Returns ``(grad, objective)`` where ``grad`` has length
        ``num_features + 1`` when an intercept is fitted (intercept
        slot last, zero otherwise excluded) — aligned with
        :meth:`params_vector`.
        """
        targets = np.asarray(targets, dtype=np.float64)[start:stop]
        decision, rows = self._forward(features, start, stop)
        dloss = self.loss.dvalue(decision, targets)
        if isinstance(rows, tuple):
            owner, indices, data = rows
            sums = np.bincount(
                indices,
                weights=data * dloss[owner],
                minlength=self.num_features,
            )
        else:
            sums = rows.T @ dloss
        grad_w = sums / len(targets)
        grad_w = grad_w + self.regularizer.gradient(self.weights)
        objective = self.loss.value(decision, targets) + (
            self.regularizer.penalty(self.weights)
        )
        if self.fit_intercept:
            grad_b = float(dloss.mean())
            return np.concatenate([grad_w, [grad_b]]), objective
        return grad_w, objective

    def objective(self, features: Matrix, targets: np.ndarray) -> float:
        """Regularized loss on a batch (no gradient)."""
        targets = np.asarray(targets, dtype=np.float64)
        decision = self.decision_function(features)
        return self.loss.value(decision, targets) + (
            self.regularizer.penalty(self.weights)
        )

    # ------------------------------------------------------------------
    # Parameter packing (optimizer interface)
    # ------------------------------------------------------------------
    @property
    def num_params(self) -> int:
        return self.num_features + (1 if self.fit_intercept else 0)

    def params_vector(self) -> np.ndarray:
        """Packed parameters ``[w…, b?]`` (a copy)."""
        if self.fit_intercept:
            return np.concatenate([self.weights, [self.intercept]])
        return self.weights.copy()

    def set_params_vector(self, params: np.ndarray) -> None:
        """Install packed parameters produced by an optimizer step —
        a new array nobody else holds, so the model keeps it (the
        weights are a view of it) instead of copying it."""
        params = np.asarray(params, dtype=np.float64)
        if params.shape != (self.num_params,):
            raise ValidationError(
                f"expected {self.num_params} packed parameters, "
                f"got shape {params.shape}"
            )
        if self.fit_intercept:
            self.weights = params[:-1]
            self.intercept = float(params[-1])
        else:
            self.weights = params

    # ------------------------------------------------------------------
    # Persistence / warm starting
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """Deep copy of the learned state (for warm starting)."""
        return {
            "weights": self.weights.copy(),
            "intercept": self.intercept,
            "updates_applied": self.updates_applied,
        }

    def load_state_dict(self, payload: Dict[str, object]) -> None:
        weights = np.asarray(payload["weights"], dtype=np.float64)
        if weights.shape != (self.num_features,):
            raise ValidationError(
                f"state has {weights.shape} weights, expected "
                f"({self.num_features},)"
            )
        self.weights = weights.copy()
        self.intercept = float(payload["intercept"])
        self.updates_applied = int(payload["updates_applied"])

    def clone(self) -> "LinearSGDModel":
        """Fresh, untrained copy with the same configuration."""
        duplicate = copy.deepcopy(self)
        duplicate.weights = np.zeros(self.num_features, dtype=np.float64)
        duplicate.intercept = 0.0
        duplicate.updates_applied = 0
        return duplicate

    def reset(self) -> None:
        """Zero the parameters in place."""
        self.weights = np.zeros(self.num_features, dtype=np.float64)
        self.intercept = 0.0
        self.updates_applied = 0

    # ------------------------------------------------------------------
    def _forward(
        self, features: Matrix, start: int, stop: Optional[int]
    ) -> Tuple[np.ndarray, object]:
        """Decision values of rows ``[start, stop)`` and what the
        column sums read: the dense view, the whole sparse matrix, or
        a CSR range's stored entries as ``(owner, indices, data)``."""
        if features.ndim != 2:
            raise ValidationError(
                f"features must be 2-D, got shape {features.shape}"
            )
        count, width = features.shape
        if width != self.num_features:
            raise ValidationError(
                f"features have {width} columns, model "
                f"expects {self.num_features}"
            )
        stop = count if stop is None else stop
        if not 0 <= start <= stop <= count:
            raise ValidationError(
                f"rows [{start}, {stop}) are not within {count} rows"
            )
        if not sp.issparse(features):
            rows = np.asarray(features[start:stop], dtype=np.float64)
            scores = np.add.reduce(rows * self.weights, axis=1)
        elif (start, stop) == (0, count):
            rows = features
            scores = features @ self.weights
        else:
            csr = features.tocsr()  # a CSR returns itself
            indptr = csr.indptr
            entries = slice(indptr[start], indptr[stop])
            owner = np.repeat(
                np.arange(stop - start),
                indptr[start + 1:stop + 1] - indptr[start:stop],
            )
            indices, data = csr.indices[entries], csr.data[entries]
            rows = owner, indices, data
            scores = np.bincount(
                owner,
                weights=data * self.weights[indices],
                minlength=stop - start,
            )
        return scores + self.intercept, rows

    def _require_trained(self) -> None:
        if self.updates_applied == 0:
            raise NotFittedError(
                f"{type(self).__name__} has never been updated"
            )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(num_features={self.num_features}, "
            f"loss={self.loss.name}, reg={self.regularizer.name}, "
            f"updates={self.updates_applied})"
        )

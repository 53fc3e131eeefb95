"""Base class for SGD-trainable linear models.

A linear model keeps a weight vector and intercept and exposes the
``update``-style gradient interface the paper requires of deployed
models (§4.4: "the machine learning model component of the deployed
pipeline must implement an update method, which is responsible for
computing the gradient").

The parameters live in one packed vector ``[weights…, intercept]``
the model owns: ``weights`` is a view of it, ``intercept`` its last
slot, ``params`` the part an :class:`~repro.ml.optim.Optimizer`
updates *in place* — one coordinate array, which is what the
per-coordinate adaptation methods need. In-place updates make aliasing
observable, so the boundary copies: ``set_params_vector``,
``load_state_dict`` and the ``weights`` setter copy in;
``params_vector()``, ``state_dict()`` and pickling copy out.

Feature matrices may be dense ``ndarray`` or ``scipy.sparse`` CSR,
bare or opened as a :class:`~repro.ml.batch.Block` (which checks once
what is fixed per block), and every kernel runs over a *row range*
``[start, stop)`` of one. Three cases, chosen by what the caller
handed over, all with the same bits:

* a proper range of a CSR (the per-row online update) is read from the
  block's ``indices/data/owner`` and reduced with ``np.bincount``,
  which accumulates in stored-entry order — the order of scipy's
  ``csr_matvec`` / ``csc_matvec`` — so no scipy object is built per
  range;
* a whole sparse matrix (prediction, proactive training, full
  retraining) has nothing to slice and goes to those scipy routines as
  it is: on thousands of rows their C loop is ~9x faster than the
  ``bincount`` spelling, which pays for itself only by what it skips;
* a dense range is the numpy view ``X[start:stop]``: per-row
  ``np.add.reduce`` scores, ``view.T @ d`` column sums.

The arithmetic is frozen — trajectory digests pin its bits: ``sums /
n`` stays a division, the regularizer's term is added even when all
zeros (``-0.0 + 0.0`` is ``0.0``), a mean is ``np.add.reduce(x) / n``
(``np.mean``'s sum and division without its Python wrapper).
"""

from __future__ import annotations

import copy
from typing import Dict, Optional, Tuple

import numpy as np

from repro.exceptions import NotFittedError, ValidationError
from repro.ml.batch import Block, Matrix, open_block
from repro.ml.losses import Loss
from repro.ml.regularizers import NoRegularizer, Regularizer
from repro.utils.validation import check_positive_int


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
        self._packed = np.zeros(self.num_features + 1, dtype=np.float64)
        #: Number of SGD updates applied so far.
        self.updates_applied = 0

    @property
    def weights(self) -> np.ndarray:
        """The weight vector — a live view of the packed parameters."""
        return self._packed[:-1]

    @weights.setter
    def weights(self, values: np.ndarray) -> None:
        self._packed[:-1] = values

    @property
    def intercept(self) -> float:
        return float(self._packed[-1])

    @intercept.setter
    def intercept(self, value: float) -> None:
        self._packed[-1] = value

    @property
    def params(self) -> np.ndarray:
        """The live ``[w…, b?]`` an optimizer updates in place."""
        return self._packed if self.fit_intercept else self._packed[:-1]

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
        block = open_block(features)
        return self._forward(block, start, self._check(block, start, stop))[0]

    def predict(self, features: Matrix) -> np.ndarray:
        """Task-specific predictions; subclasses refine."""
        return self.decision_function(features)

    # ------------------------------------------------------------------
    # Training interface
    # ------------------------------------------------------------------
    def gradient(
        self,
        features: Matrix | Block,
        targets: Optional[np.ndarray] = None,
        start: int = 0,
        stop: Optional[int] = None,
        objective: bool = True,
    ) -> tuple[np.ndarray, Optional[float]]:
        """Mean-gradient of loss+penalty on rows ``[start, stop)`` of
        a :class:`~repro.ml.batch.Block` (or of a bare ``(features,
        targets)``, opened here), packed, plus loss.

        Returns ``(grad, objective)`` where ``grad`` has length
        ``num_features + 1`` when an intercept is fitted (intercept
        slot last, otherwise excluded) — aligned with :attr:`params`.
        With ``objective=False`` the loss and penalty are not
        evaluated and ``None`` stands in.
        """
        block = open_block(features, targets)
        stop = self._check(block, start, stop)
        if block.targets is None:
            raise ValidationError("cannot train on a block without targets")
        targets = block.targets[start:stop]
        count = stop - start
        weights = self.weights
        decision, rows = self._forward(block, start, stop)
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
        grad = np.empty(self.num_params)
        grad_w = np.divide(sums, count, out=grad[:self.num_features])
        grad_w += self.regularizer.gradient(weights)
        if self.fit_intercept:
            grad[-1] = np.add.reduce(dloss) / count
        if not objective:
            return grad, None
        return grad, self.loss.value(decision, targets) + (
            self.regularizer.penalty(weights)
        )

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
        return self.params.copy()

    def set_params_vector(self, params: np.ndarray) -> None:
        """Copy packed parameters in; the caller keeps its array."""
        params = np.asarray(params, dtype=np.float64)
        if params.shape != (self.num_params,):
            raise ValidationError(
                f"expected {self.num_params} packed parameters, "
                f"got shape {params.shape}"
            )
        self.params[:] = params

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
        self.weights = weights
        self.intercept = float(payload["intercept"])
        self.updates_applied = int(payload["updates_applied"])

    def __getstate__(self) -> Dict[str, object]:
        """``weights`` and ``intercept`` as the two entries every
        earlier pickle holds."""
        state = vars(self).copy()
        packed = state.pop("_packed")
        state.update(weights=packed[:-1], intercept=float(packed[-1]))
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        state = dict(state)
        self._packed = np.append(state.pop("weights"), state.pop("intercept"))
        vars(self).update(state)

    def clone(self) -> "LinearSGDModel":
        """Fresh, untrained copy with the same configuration."""
        duplicate = copy.deepcopy(self)
        duplicate.reset()
        return duplicate

    def reset(self) -> None:
        """Zero the parameters in place."""
        self._packed[:] = 0.0
        self.updates_applied = 0

    # ------------------------------------------------------------------
    def _check(self, block: Block, start: int, stop: Optional[int]) -> int:
        """The per-range checks: width against this model, bounds
        against the block. Returns ``stop`` resolved."""
        if block.width != self.num_features:
            raise ValidationError(
                f"features have {block.width} columns, model "
                f"expects {self.num_features}"
            )
        stop = block.rows if stop is None else stop
        if not 0 <= start <= stop <= block.rows:
            raise ValidationError(
                f"rows [{start}, {stop}) are not within {block.rows} rows"
            )
        return stop

    def _forward(
        self, block: Block, start: int, stop: int
    ) -> Tuple[np.ndarray, object]:
        """Decision values of rows ``[start, stop)`` and what the
        column sums read: the dense view, the whole sparse matrix, or
        a CSR range's stored entries as ``(owner, indices, data)``."""
        weights = self.weights
        if block.indices is None:
            rows = block.matrix[start:stop]
            scores = np.add.reduce(rows * weights, axis=1)
        elif stop - start == block.rows:
            rows = block.matrix
            scores = rows @ weights
        else:
            entries = slice(block.bounds[start], block.bounds[stop])
            owner = block.owner[entries] - start
            indices, data = block.indices[entries], block.data[entries]
            rows = owner, indices, data
            scores = np.bincount(
                owner, weights=data * weights[indices], minlength=stop - start
            )
        return scores + self._packed[-1], rows

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

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
what is fixed per block). Training is one kernel, :meth:`descend`: SGD
iterations over consecutive row ranges ``[lo, hi)`` of a block — one
range for a proactive step, a chunk's ranges for the online update.
What is fixed per call is resolved once, before anything moves: the
width, bounds, targets and a non-empty range are checked, the
optimizer sized and bound (:meth:`~repro.ml.optim.Optimizer.prepare`,
``bind``), the gradient buffer ``[w…, b?]``, the regularizer's term
(``bind``) and the loss and intercept branches bound. A range pays
only its arithmetic and its rule's step, with the bits of scipy /
numpy on the sliced rows:

* a proper range of a CSR is read from the block's
  ``indices/data/owner`` and reduced with ``np.bincount``, which
  accumulates in stored-entry order — the order of scipy's
  ``csr_matvec`` / ``csc_matvec`` — so no scipy object is built;
* a whole sparse matrix (prediction, proactive training, retraining)
  goes to those scipy routines as it is: on thousands of rows their C
  loop is ~9x faster than the ``bincount`` spelling;
* a dense range is the view ``X[lo:hi]``: per-row ``np.add.reduce``
  scores, ``view.T @ d`` column sums;
* a one-row range (the URL and the taxi row), unless its objective is
  asked for, is one step for both representations, CSR only in
  canonical format (the hasher's): see :meth:`descend`.

The arithmetic is frozen — trajectory digests pin its bits: ``sums /
n`` stays a division, the regularizer's term is added even when all
zeros (``-0.0 + 0.0`` is ``0.0``), a mean is ``np.add.reduce(x) / n``
(``np.mean``'s sum and division without its Python wrapper).
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING, Dict, Optional, Tuple, Type

import numpy as np

from repro.exceptions import ValidationError
from repro.ml.batch import Block, Matrix, open_block
from repro.ml.losses import Loss, SquaredLoss
from repro.ml.regularizers import NoRegularizer, Regularizer
from repro.utils.validation import check_positive_int

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.ml.optim.base import Optimizer

#: ``np.bincount``'s C routine, minus its dispatch frame (once a row).
bincount = getattr(np.bincount, "_implementation", np.bincount)


class LinearSGDModel:
    """A linear model ``z = X w + b`` trained by (mini-batch) SGD.

    Parameters
    ----------
    num_features:
        Dimensionality of the weight vector. Fixed at construction —
        the pipelines guarantee a stable feature width (hashing /
        assembly), matching the deployment setting.
    regularizer:
        Penalty on the weights (never the intercept).
    fit_intercept:
        Learn a bias term (default true).
    """

    #: Task flavour, set by subclasses ("regression" / "classification").
    task: str = "regression"
    #: The per-example loss driving the gradient, set by subclasses.
    loss_type: Type[Loss] = SquaredLoss

    def __init__(
        self,
        num_features: int,
        regularizer: Optional[Regularizer] = None,
        fit_intercept: bool = True,
    ) -> None:
        self.num_features = check_positive_int(num_features, "num_features")
        self.loss = self.loss_type()
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
        fixed by the row alone — stored-entry order for sparse (scipy's,
        on the rows sliced), a per-row ``np.add.reduce`` for dense
        instead of BLAS ``X @ w`` (gemv kernels block over *rows*, so a
        row's low bits would depend on how many rows share the call).
        That is the serving guarantee: a micro-batched prediction is
        bit-identical to the same row served alone.
        """
        block = open_block(features)
        stop = self._check(block, start, stop)
        matrix = block.matrix
        if block.indices is None:
            scores = np.add.reduce(matrix[start:stop] * self.weights, axis=1)
        else:
            if stop - start < block.rows:
                matrix = matrix[start:stop]
            scores = matrix @ self.weights
        return scores + self._packed[-1]

    def predict(self, features: Matrix) -> np.ndarray:
        """The decision values for regression; for classification hard
        labels in {-1, +1} (a 0 decision maps to +1)."""
        decision = self.decision_function(features)
        if self.task == "regression":
            return decision
        return np.where(decision >= 0.0, 1.0, -1.0)

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
    ) -> Tuple[np.ndarray, Optional[float]]:
        """``(grad, objective)``: :meth:`descend` over the one range
        ``[start, stop)`` of a block (or bare arrays), no update."""
        block = open_block(features, targets)
        return self.descend(block, None, start, stop, None, objective)

    def descend(
        self,
        block: Block,
        optimizer: Optional["Optimizer"],
        start: int = 0,
        stop: Optional[int] = None,
        size: Optional[int] = None,
        objective: bool = True,
    ) -> Tuple[np.ndarray, Optional[float]]:
        """An SGD iteration per consecutive range of ``size`` rows of
        ``[start, stop)`` (the last one shorter; ``None``: one range),
        updating :attr:`params` in place through ``optimizer`` (none:
        nothing moves). Returns the last range's packed mean gradient
        and its objective before the update (``None`` if not asked).

        The one-row step: the representation picks the score (dense
        ``add.reduce(x * w)``, CSR the range path's ``bincount`` into
        one bin) and the columns; ``d`` is the loss's ``point``;
        ``grad_w = term + 0.0``, then ``x * d + grad_w`` at the columns;
        intercept ``d + 0.0``. The range path computes ``(0.0 + x * d)
        / 1 + term``, and ``(a + 0.0) + t == a + (t + 0.0)`` for every
        pair, signed zeros included; ``x * d`` stays first, so a NaN's
        payload lands where it did. CSR only in canonical format."""
        stop = self._check(block, start, stop)
        targets = block.targets
        if targets is None:
            raise ValidationError("cannot train on a block without targets")
        if stop == start:
            raise ValidationError("loss evaluated on an empty batch")
        size = stop - start if size is None else size
        params, packed, weights = self.params, self._packed, self.weights
        grad = np.empty(self.num_params)
        grad_w, fit = grad[:self.num_features], self.fit_intercept
        if optimizer is not None:
            update = optimizer.bind(grad, *optimizer.prepare(params, grad))
        term, fill = self.regularizer.bind(weights)
        loss, matrix, dense = self.loss, block.matrix, block.indices is None
        derivative, point = loss._dvalue, loss.point  # non-empty, equal
        indices, data, value = block.indices, block.data, None
        single = size == 1 or (stop - start) % size == 1  # a one-row range
        if single and not dense:
            single = matrix.has_canonical_format
            bounds, zero = block.bounds, np.zeros(len(data), np.intp)
        labels = targets.tolist() if size == 1 else targets
        nought = np.zeros(())  # +0.0, a 0-d operand: no conversion a row
        for lo in range(start, stop, size):
            hi = min(lo + size, stop)
            last = objective and hi == stop
            if fill is not None:
                fill()
            if single and hi - lo == 1 and not last:
                if dense:
                    columns, values = slice(None), matrix[lo]
                    z = np.add.reduce(values * weights)
                else:
                    a, b = bounds[lo], bounds[hi]
                    columns, values = indices[a:b], data[a:b]
                    z = bincount(zero[:b - a], values * weights[columns], 1)[0]
                d = point(z + packed[-1], labels[lo])
                np.add(term, nought, out=grad_w)
                grad_w[columns] = values * d + grad_w[columns]
                if fit:
                    grad[-1] = d + 0.0
            else:
                if dense:
                    rows = matrix[lo:hi]
                    scores = np.add.reduce(rows * weights, axis=1)
                elif hi - lo == block.rows:
                    rows = matrix
                    scores = rows @ weights
                else:
                    rows = None
                    entries = slice(block.bounds[lo], block.bounds[hi])
                    owner = block.owner[entries] - lo
                    columns, values = indices[entries], data[entries]
                    products = values * weights[columns]
                    scores = bincount(owner, products, hi - lo)
                decision, batch = scores + packed[-1], targets[lo:hi]
                dloss = derivative(decision, batch)
                if rows is None:
                    sums = bincount(
                        columns, values * dloss[owner], self.num_features
                    )
                else:
                    sums = rows.T @ dloss
                np.divide(sums, hi - lo, out=grad_w)
                if fit:
                    grad[-1] = np.add.reduce(dloss) / (hi - lo)
                if last:
                    value = loss.value(decision, batch) + (
                        self.regularizer.penalty(weights)
                    )
                grad_w += term
            if optimizer is not None:
                np.add(params, update(), out=params)
        if optimizer is not None:
            self.updates_applied += -(-(stop - start) // size)
        return grad, value

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
        """A call's checks: width against this model, bounds against
        the block. Returns ``stop`` resolved."""
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

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(num_features={self.num_features}, "
            f"loss={self.loss.name}, reg={self.regularizer.name}, "
            f"updates={self.updates_applied})"
        )

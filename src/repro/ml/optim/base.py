"""Optimizer base class with persistable state.

An :class:`Optimizer` turns a gradient into a parameter update. State
(moment estimates, squared-gradient accumulators, iteration counters)
lives on the optimizer so that:

* proactive training can run one SGD iteration at arbitrary times —
  iterations are conditionally independent given model parameters and
  optimizer state (§3.3 of the paper), and
* periodical retraining can warm-start by copying the optimizer state
  along with the model weights (§5.2, TFX-style warm starting).

A step allocates nothing: a rule updates its moments in place and
builds the delta in two scratch arrays sized from ``dim`` (not state:
no ``state_dict()`` or pickle holds them), in the operation order of
its textbook spelling — ``((1-β₂)·g)·g``, ``(-η·m̂) / (√v̂ + ε)``, a
division never a multiplication by a reciprocal — because a
reordering changes low bits that every trajectory digest pins.

A training kernel checks and sizes once (:meth:`Optimizer.prepare`)
and binds once (:meth:`Optimizer.bind`): the rule looks up its state
and makes its constants (β₁, 1−β₁, −η, ε, …) 0-d ``float64`` arrays —
a Python float costs each ufunc call a conversion — and returns its
step, a local closure that pickles and ``state_dict`` never see.
"""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from repro.exceptions import ValidationError


class Optimizer(ABC):
    """Base class for SGD update rules.

    Subclasses implement :meth:`bind`, whose step returns the parameter
    *delta* for a gradient, and name their per-coordinate state in
    :attr:`arrays`.
    """

    #: Config/report identifier.
    name: str = "base"

    #: Keys of the ``float64`` state arrays, zeroed at the first step.
    arrays: Tuple[str, ...] = ()
    #: Two ``dim``-slot work arrays, allocated when first needed.
    _scratch: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def __init__(self) -> None:
        self._state: Dict[str, Any] = {}
        self._dim: int | None = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def step(
        self,
        params: np.ndarray,
        grad: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Return updated parameters for one SGD iteration.

        ``params`` and ``grad`` must be 1-D and the same length. The
        result goes where numpy's ``out=`` puts it: ``out=params``
        updates in place (what :class:`~repro.ml.sgd.SGDTrainer`
        does), the default leaves both inputs alone and returns a new
        array the optimizer keeps no reference to.
        """
        params = np.asarray(params, dtype=np.float64)
        grad = np.asarray(grad, dtype=np.float64)
        scratch = self.prepare(params, grad)
        return np.add(params, self.bind(grad, *scratch)(), out=out)

    def prepare(
        self, params: np.ndarray, grad: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Check ``params`` and ``grad`` are equal 1-D shapes, size the
        state on first use (refuse another size after) and return the
        scratch :meth:`bind` builds a delta in — once per kernel."""
        if params.ndim != 1 or grad.shape != params.shape:
            raise ValidationError(
                f"params shape {params.shape} and grad shape "
                f"{grad.shape} must be equal 1-D shapes"
            )
        if self._dim is None:
            self._dim = params.size
            self._state = {key: np.zeros(self._dim) for key in self.arrays}
        elif params.size != self._dim:
            raise ValidationError(
                f"optimizer was sized for {self._dim} parameters, "
                f"got {params.size}"
            )
        if self._scratch is None:
            self._scratch = np.empty(self._dim), np.empty(self._dim)
        return self._scratch

    def reset(self) -> None:
        """Drop all state (fresh optimizer, same hyperparameters)."""
        self._state = {}
        self._dim = None
        self._scratch = None

    def state_dict(self) -> Dict[str, Any]:
        """Deep copy of the internal state, for warm starting."""
        return {
            "dim": self._dim,
            "state": copy.deepcopy(self._state),
        }

    def load_state_dict(self, payload: Dict[str, Any]) -> None:
        """Restore state captured by :meth:`state_dict`."""
        if set(payload) != {"dim", "state"}:
            raise ValidationError(
                f"malformed optimizer state: keys {sorted(payload)}"
            )
        dim, state = payload["dim"], copy.deepcopy(payload["state"])
        # Never sized: no state at all. Sized: every array is (dim,).
        for key in state if dim is None else self.arrays:
            found = state.get(key)
            shape = getattr(found, "shape", None)
            dtype = getattr(found, "dtype", type(found).__name__)
            if shape != (dim,) or dtype != np.float64:
                raise ValidationError(
                    f"optimizer state {key!r} is {dtype} of shape "
                    f"{shape}, dim={dim} takes float64 of shape ({dim},)"
                )
        self._dim, self._state, self._scratch = dim, state, None

    def __getstate__(self) -> Dict[str, Any]:
        return {k: v for k, v in vars(self).items() if k != "_scratch"}

    def clone(self) -> "Optimizer":
        """A fresh optimizer with identical hyperparameters, no state."""
        duplicate = copy.deepcopy(self)
        duplicate.reset()
        return duplicate

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    @abstractmethod
    def bind(
        self, grad: np.ndarray, delta: np.ndarray, work: np.ndarray
    ) -> Callable[[], np.ndarray]:
        """The step: each call returns the delta (already negated) for
        what ``grad`` holds then, built in the scratch ``delta`` and
        ``work``. Bound after :meth:`prepare`, while the state stays."""

    def __repr__(self) -> str:
        public = {
            k: v
            for k, v in vars(self).items()
            if not k.startswith("_")
        }
        arguments = ", ".join(f"{k}={v}" for k, v in sorted(public.items()))
        return f"{type(self).__name__}({arguments})"

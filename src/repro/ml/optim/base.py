"""Optimizer base class with persistable state.

An :class:`Optimizer` turns a gradient into a parameter update. State
(moment estimates, squared-gradient accumulators, iteration counters)
lives on the optimizer so that:

* proactive training can run one SGD iteration at arbitrary times —
  iterations are conditionally independent given model parameters and
  optimizer state (§3.3 of the paper), and
* periodical retraining can warm-start by copying the optimizer state
  along with the model weights (§5.2, TFX-style warm starting).
"""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod
from typing import Any, Dict

import numpy as np

from repro.exceptions import ValidationError


class Optimizer(ABC):
    """Base class for SGD update rules.

    Subclasses implement :meth:`_update` returning the parameter
    *delta* for a gradient, and may allocate per-coordinate state via
    :meth:`_ensure_dim`.
    """

    #: Config/report identifier.
    name: str = "base"

    def __init__(self) -> None:
        self._state: Dict[str, Any] = {}
        self._dim: int | None = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """Return updated parameters for one SGD iteration.

        ``params`` and ``grad`` must be 1-D and the same length; the
        input arrays are not mutated and the result is a new array the
        optimizer keeps no reference to.
        """
        params = np.asarray(params, dtype=np.float64)
        grad = np.asarray(grad, dtype=np.float64)
        if params.ndim != 1 or grad.shape != params.shape:
            raise ValidationError(
                f"params shape {params.shape} and grad shape "
                f"{grad.shape} must be equal 1-D shapes"
            )
        if self._dim is None:
            self._dim = params.size
        elif params.size != self._dim:
            raise ValidationError(
                f"optimizer was sized for {self._dim} parameters, "
                f"got {params.size}"
            )
        delta = self._update(grad)
        return np.add(params, delta, out=delta)

    def reset(self) -> None:
        """Drop all state (fresh optimizer, same hyperparameters)."""
        self._state = {}
        self._dim = None

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
        self._dim = payload["dim"]
        self._state = copy.deepcopy(payload["state"])

    def clone(self) -> "Optimizer":
        """A fresh optimizer with identical hyperparameters, no state."""
        duplicate = copy.deepcopy(self)
        duplicate.reset()
        return duplicate

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    @abstractmethod
    def _update(self, grad: np.ndarray) -> np.ndarray:
        """Parameter delta (already negated) for this gradient, in a
        new array: :meth:`step` adds the parameters into it."""

    def _ensure_array(self, key: str, like: np.ndarray) -> np.ndarray:
        """Get-or-create a zeroed state array shaped like ``like``."""
        array = self._state.get(key)
        if array is None:
            array = np.zeros_like(like, dtype=np.float64)
            self._state[key] = array
        return array

    def _bump_counter(self, key: str = "t") -> int:
        """Increment and return an integer state counter (from 1)."""
        value = int(self._state.get(key, 0)) + 1
        self._state[key] = value
        return value

    def __repr__(self) -> str:
        public = {
            k: v
            for k, v in vars(self).items()
            if not k.startswith("_")
        }
        arguments = ", ".join(f"{k}={v}" for k, v in sorted(public.items()))
        return f"{type(self).__name__}({arguments})"

"""Weight regularizers.

Applied to the weight vector only — never the intercept — by the
models in :mod:`repro.ml.models`. The paper's hyperparameter grid
(Table 3) sweeps the L2 strength over {1e-2, 1e-3, 1e-4}.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import partial
from typing import Callable, Optional, Tuple

import numpy as np

from repro.utils.validation import check_non_negative


class Regularizer(ABC):
    """Penalty term added to the loss, with its (sub)gradient."""

    name: str = "base"

    @abstractmethod
    def penalty(self, weights: np.ndarray) -> float:
        """Penalty value for ``weights``."""

    def gradient(self, weights: np.ndarray) -> np.ndarray:
        """(Sub)gradient of the penalty at ``weights``, a new array."""
        term, fill = self.bind(weights)
        return term if fill is None else fill()

    @abstractmethod
    def bind(
        self, weights: np.ndarray
    ) -> Tuple[np.ndarray, Optional[Callable[[], np.ndarray]]]:
        """``(term, fill)``: ``fill()`` rewrites ``term`` from the live
        ``weights`` once a step and returns it; ``None`` if fixed."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class NoRegularizer(Regularizer):
    """No penalty."""

    name = "none"

    def penalty(self, weights: np.ndarray) -> float:
        return 0.0

    def bind(self, weights):
        return np.zeros_like(weights), None


class L2(Regularizer):
    """Ridge penalty ``½ λ ‖w‖²`` with gradient ``λ w``."""

    name = "l2"

    def __init__(self, strength: float) -> None:
        self.strength = check_non_negative(strength, "strength")

    def penalty(self, weights: np.ndarray) -> float:
        return float(0.5 * self.strength * np.dot(weights, weights))

    def bind(self, weights):
        term, strength = np.empty_like(weights), np.array(self.strength)
        return term, partial(np.multiply, strength, weights, out=term)

    def __repr__(self) -> str:
        return f"L2(strength={self.strength})"


class L1(Regularizer):
    """Lasso penalty ``λ ‖w‖₁`` with subgradient ``λ sign(w)``."""

    name = "l1"

    def __init__(self, strength: float) -> None:
        self.strength = check_non_negative(strength, "strength")

    def penalty(self, weights: np.ndarray) -> float:
        return float(self.strength * np.abs(weights).sum())

    def bind(self, weights):
        term = np.empty_like(weights)
        sign = partial(np.sign, weights, out=term)
        return term, lambda: np.multiply(self.strength, sign(), out=term)

    def __repr__(self) -> str:
        return f"L1(strength={self.strength})"

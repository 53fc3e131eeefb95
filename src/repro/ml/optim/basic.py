"""Non-adaptive update rules: constant, inverse-scaling, momentum.

These are the "trivial approach" baselines of §2.1 (fixed or simply
decaying learning rates) plus classical momentum (Qian 1999), which the
paper cites among the adaptive-rate methods.
"""

from __future__ import annotations

import numpy as np

from repro.ml.optim.base import Optimizer
from repro.utils.validation import check_fraction, check_positive


class ConstantLR(Optimizer):
    """Plain SGD: ``w ← w − η g``."""

    name = "constant"

    def __init__(self, learning_rate: float = 0.01) -> None:
        super().__init__()
        self.learning_rate = check_positive(learning_rate, "learning_rate")

    def _update(self, grad, delta, work):
        return np.multiply(-self.learning_rate, grad, out=delta)


class InverseScalingLR(Optimizer):
    """Decaying SGD: ``η_t = η₀ / t^power`` (§2.1's "decrease by a
    small factor after every iteration").
    """

    name = "inverse_scaling"

    def __init__(
        self, learning_rate: float = 0.01, power: float = 0.5
    ) -> None:
        super().__init__()
        self.learning_rate = check_positive(learning_rate, "learning_rate")
        self.power = check_positive(power, "power")

    def _update(self, grad, delta, work):
        step_index = self._bump_counter()
        eta = self.learning_rate / step_index**self.power
        return np.multiply(-eta, grad, out=delta)

    def current_learning_rate(self) -> float:
        """Learning rate the *next* step will use."""
        next_step = int(self._state.get("t", 0)) + 1
        return self.learning_rate / next_step**self.power


class Momentum(Optimizer):
    """Classical momentum: ``v ← β v − η g``; ``w ← w + v``."""

    name = "momentum"
    arrays = ("velocity",)

    def __init__(
        self, learning_rate: float = 0.01, beta: float = 0.9
    ) -> None:
        super().__init__()
        self.learning_rate = check_positive(learning_rate, "learning_rate")
        self.beta = check_fraction(beta, "beta")

    def _update(self, grad, delta, work):
        velocity = self._state["velocity"]
        velocity *= self.beta
        velocity -= np.multiply(self.learning_rate, grad, out=work)
        return velocity

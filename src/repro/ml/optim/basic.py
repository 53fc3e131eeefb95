"""Non-adaptive update rules: constant, inverse-scaling, momentum.

These are the "trivial approach" baselines of §2.1 (fixed or simply
decaying learning rates) plus classical momentum (Qian 1999), which the
paper cites among the adaptive-rate methods.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.ml.optim.base import Optimizer
from repro.utils.validation import check_fraction, check_positive


class ConstantLR(Optimizer):
    """Plain SGD: ``w ← w − η g``."""

    name = "constant"

    def __init__(self, learning_rate: float = 0.01) -> None:
        super().__init__()
        self.learning_rate = check_positive(learning_rate, "learning_rate")

    def bind(self, grad, delta, work):
        rate = np.array(-self.learning_rate)
        return partial(np.multiply, rate, grad, out=delta)


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

    def bind(self, grad, delta, work):
        def step():
            step_index = self._state["t"] = int(self._state.get("t", 0)) + 1
            eta = self.learning_rate / step_index**self.power
            return np.multiply(-eta, grad, out=delta)
        return step


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

    def bind(self, grad, delta, work):
        velocity = self._state["velocity"]
        beta, rate = map(np.array, (self.beta, self.learning_rate))
        def step():
            np.multiply(velocity, beta, out=velocity)
            product = np.multiply(rate, grad, out=work)
            return np.subtract(velocity, product, out=velocity)
        return step

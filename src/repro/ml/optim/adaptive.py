"""Per-coordinate adaptive update rules: AdaGrad, RMSProp, AdaDelta, Adam.

These are the methods §2.1 of the paper highlights: each coordinate of
the weight vector gets its own effective learning rate, driven by the
history of that coordinate's gradients. Definitions follow the cited
originals (Duchi et al. 2011; Tieleman & Hinton 2012; Zeiler 2012;
Kingma & Ba 2014 — with Adam's bias correction).
"""

from __future__ import annotations

import numpy as np

from repro.ml.optim.base import Optimizer
from repro.utils.validation import check_fraction, check_positive


class AdaGrad(Optimizer):
    """AdaGrad: accumulate squared gradients, shrink step per coordinate.

    ``G ← G + g²``;  ``w ← w − η g / (√G + ε)``
    """

    name = "adagrad"
    arrays = ("sq_sum",)

    def __init__(
        self, learning_rate: float = 0.01, epsilon: float = 1e-8
    ) -> None:
        super().__init__()
        self.learning_rate = check_positive(learning_rate, "learning_rate")
        self.epsilon = check_positive(epsilon, "epsilon")

    def bind(self, grad, delta, work):
        total = self._state["sq_sum"]
        epsilon, rate = map(np.array, (self.epsilon, -self.learning_rate))
        def step():
            np.add(total, np.multiply(grad, grad, out=work), out=total)
            np.sqrt(total, out=work)
            np.add(work, epsilon, out=work)
            np.multiply(rate, grad, out=delta)
            return np.divide(delta, work, out=delta)
        return step


class RMSProp(Optimizer):
    """RMSProp: exponential moving average of squared gradients.

    ``E[g²] ← ρ E[g²] + (1−ρ) g²``;
    ``w ← w − η g / √(E[g²] + ε)``
    """

    name = "rmsprop"
    arrays = ("sq_avg",)

    def __init__(
        self,
        learning_rate: float = 0.01,
        rho: float = 0.9,
        epsilon: float = 1e-8,
    ) -> None:
        super().__init__()
        self.learning_rate = check_positive(learning_rate, "learning_rate")
        self.rho = check_fraction(rho, "rho")
        self.epsilon = check_positive(epsilon, "epsilon")

    def bind(self, grad, delta, work):
        average = self._state["sq_avg"]
        rho, keep, epsilon, rate = map(np.array, (
            self.rho, 1.0 - self.rho, self.epsilon, -self.learning_rate
        ))
        def step():
            np.multiply(average, rho, out=average)
            np.multiply(keep, grad, out=work)
            np.add(average, np.multiply(work, grad, out=work), out=average)
            np.sqrt(np.add(average, epsilon, out=work), out=work)
            np.multiply(rate, grad, out=delta)
            return np.divide(delta, work, out=delta)
        return step


class AdaDelta(Optimizer):
    """AdaDelta: RMS-ratio updates, no global learning rate.

    ``E[g²] ← ρ E[g²] + (1−ρ) g²``;
    ``Δw = −(RMS[Δw] / RMS[g]) g``;
    ``E[Δw²] ← ρ E[Δw²] + (1−ρ) Δw²``
    """

    name = "adadelta"
    arrays = ("sq_avg", "delta_avg")

    def __init__(self, rho: float = 0.95, epsilon: float = 1e-6) -> None:
        super().__init__()
        self.rho = check_fraction(rho, "rho")
        self.epsilon = check_positive(epsilon, "epsilon")

    def bind(self, grad, delta, work):
        sq_avg, delta_avg = self._state["sq_avg"], self._state["delta_avg"]
        rho, keep, epsilon = map(np.array, (
            self.rho, 1.0 - self.rho, self.epsilon
        ))
        def step():
            np.multiply(sq_avg, rho, out=sq_avg)
            np.multiply(keep, grad, out=work)
            np.add(sq_avg, np.multiply(work, grad, out=work), out=sq_avg)
            np.sqrt(np.add(delta_avg, epsilon, out=delta), out=delta)
            np.negative(delta, out=delta)
            np.sqrt(np.add(sq_avg, epsilon, out=work), out=work)
            np.divide(delta, work, out=delta)
            np.multiply(delta, grad, out=delta)
            np.multiply(delta_avg, rho, out=delta_avg)
            np.multiply(keep, delta, out=work)
            squared = np.multiply(work, delta, out=work)
            np.add(delta_avg, squared, out=delta_avg)
            return delta
        return step


class Adam(Optimizer):
    """Adam: bias-corrected first and second moment estimates.

    ``m ← β₁ m + (1−β₁) g``;  ``v ← β₂ v + (1−β₂) g²``;
    ``w ← w − η m̂ / (√v̂ + ε)`` with ``m̂ = m/(1−β₁ᵗ)``,
    ``v̂ = v/(1−β₂ᵗ)``.
    """

    name = "adam"
    arrays = ("m", "v")

    def __init__(
        self,
        learning_rate: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        super().__init__()
        self.learning_rate = check_positive(learning_rate, "learning_rate")
        self.beta1 = check_fraction(beta1, "beta1")
        self.beta2 = check_fraction(beta2, "beta2")
        self.epsilon = check_positive(epsilon, "epsilon")

    def bind(self, grad, delta, work):
        state, beta1, beta2 = self._state, self.beta1, self.beta2
        first, second = state["m"], state["v"]
        b1, keep1, b2, keep2, rate, epsilon = map(np.array, (
            beta1, 1.0 - beta1, beta2, 1.0 - beta2,
            -self.learning_rate, self.epsilon,
        ))
        unbias1, unbias2 = np.empty(()), np.empty(())  # 1 − βᵗ, per step
        def step():
            step_index = state["t"] = int(state.get("t", 0)) + 1
            unbias1[()] = 1.0 - beta1**step_index
            unbias2[()] = 1.0 - beta2**step_index
            np.multiply(first, b1, out=first)
            np.add(first, np.multiply(keep1, grad, out=work), out=first)
            np.multiply(second, b2, out=second)
            np.multiply(keep2, grad, out=work)
            np.add(second, np.multiply(work, grad, out=work), out=second)
            np.divide(first, unbias1, out=delta)  # m̂
            np.multiply(delta, rate, out=delta)
            np.divide(second, unbias2, out=work)  # v̂
            np.sqrt(work, out=work)
            np.add(work, epsilon, out=work)
            return np.divide(delta, work, out=delta)
        return step

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

    def _update(self, grad, delta, work):
        accumulator = self._state["sq_sum"]
        accumulator += np.multiply(grad, grad, out=work)
        np.sqrt(accumulator, out=work)
        work += self.epsilon
        np.multiply(-self.learning_rate, grad, out=delta)
        return np.divide(delta, work, out=delta)


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

    def _update(self, grad, delta, work):
        average = self._state["sq_avg"]
        average *= self.rho
        np.multiply(1.0 - self.rho, grad, out=work)
        average += np.multiply(work, grad, out=work)
        np.sqrt(np.add(average, self.epsilon, out=work), out=work)
        np.multiply(-self.learning_rate, grad, out=delta)
        return np.divide(delta, work, out=delta)


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

    def _update(self, grad, delta, work):
        sq_avg = self._state["sq_avg"]
        delta_avg = self._state["delta_avg"]
        sq_avg *= self.rho
        np.multiply(1.0 - self.rho, grad, out=work)
        sq_avg += np.multiply(work, grad, out=work)
        np.sqrt(np.add(delta_avg, self.epsilon, out=delta), out=delta)
        np.negative(delta, out=delta)
        delta /= np.sqrt(np.add(sq_avg, self.epsilon, out=work), out=work)
        delta *= grad
        delta_avg *= self.rho
        np.multiply(1.0 - self.rho, delta, out=work)
        delta_avg += np.multiply(work, delta, out=work)
        return delta


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

    def _update(self, grad, delta, work):
        first, second = self._state["m"], self._state["v"]
        step_index = self._state["t"] = int(self._state.get("t", 0)) + 1
        first *= self.beta1
        first += np.multiply(1.0 - self.beta1, grad, out=work)
        second *= self.beta2
        np.multiply(1.0 - self.beta2, grad, out=work)
        second += np.multiply(work, grad, out=work)
        np.divide(first, 1.0 - self.beta1**step_index, out=delta)  # m̂
        delta *= -self.learning_rate
        np.divide(second, 1.0 - self.beta2**step_index, out=work)  # v̂
        np.sqrt(work, out=work)
        work += self.epsilon
        return np.divide(delta, work, out=delta)

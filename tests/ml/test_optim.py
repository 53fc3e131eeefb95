"""Unit tests for the SGD update rules."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.ml.optim import (
    AdaDelta,
    AdaGrad,
    Adam,
    ConstantLR,
    InverseScalingLR,
    Momentum,
    RMSProp,
    make_optimizer,
)

ALL_OPTIMIZERS = [
    ConstantLR(0.1),
    InverseScalingLR(0.1),
    Momentum(0.1),
    AdaGrad(0.1),
    RMSProp(0.1),
    AdaDelta(),
    Adam(0.1),
]


def quadratic_descent(optimizer, start=5.0, steps=400):
    """Minimise f(x) = x² with the optimizer; return the trajectory."""
    params = np.array([start])
    trajectory = [start]
    for __ in range(steps):
        grad = 2.0 * params
        params = optimizer.step(params, grad)
        trajectory.append(float(params[0]))
    return trajectory


class TestUpdateRules:
    def test_constant_lr_step(self):
        optimizer = ConstantLR(0.5)
        new = optimizer.step(np.array([1.0]), np.array([2.0]))
        assert new[0] == 0.0

    def test_inverse_scaling_decays(self):
        optimizer = InverseScalingLR(1.0, power=1.0)
        first = optimizer.current_learning_rate()
        optimizer.step(np.array([0.0]), np.array([1.0]))
        second = optimizer.current_learning_rate()
        assert first == 1.0
        assert second == 0.5

    def test_momentum_accumulates_velocity(self):
        optimizer = Momentum(learning_rate=0.1, beta=0.9)
        params = np.array([0.0])
        grad = np.array([1.0])
        p1 = optimizer.step(params, grad)
        p2 = optimizer.step(p1, grad)
        # Second step is larger: velocity builds up.
        assert abs(p2[0] - p1[0]) > abs(p1[0] - params[0])

    def test_adagrad_shrinks_steps(self):
        optimizer = AdaGrad(0.5)
        params = np.array([0.0])
        grad = np.array([1.0])
        p1 = optimizer.step(params, grad)
        p2 = optimizer.step(p1, grad)
        assert abs(p2[0] - p1[0]) < abs(p1[0] - params[0])

    def test_rmsprop_step_bounded_by_lr(self):
        optimizer = RMSProp(learning_rate=0.1)
        params = np.array([0.0])
        # Huge gradient: per-coordinate normalisation caps the step.
        new = optimizer.step(params, np.array([1e6]))
        assert abs(new[0]) < 0.4

    def test_adam_first_step_is_lr_sized(self):
        """Bias correction makes Adam's first step ≈ lr * sign(g)."""
        optimizer = Adam(learning_rate=0.1)
        new = optimizer.step(np.array([0.0]), np.array([123.0]))
        assert new[0] == pytest.approx(-0.1, rel=1e-3)

    def test_adadelta_needs_no_learning_rate(self):
        optimizer = AdaDelta()
        new = optimizer.step(np.array([1.0]), np.array([1.0]))
        assert new[0] != 1.0

    @pytest.mark.parametrize(
        ("optimizer", "steps"),
        [
            (ConstantLR(0.1), 800),
            (InverseScalingLR(0.1), 800),
            (Momentum(0.1), 800),
            # AdaGrad's effective rate decays ~1/sqrt(t); give it a
            # larger base rate. AdaDelta starts slowly by design; give
            # it more iterations.
            (AdaGrad(0.5), 800),
            (RMSProp(0.1), 800),
            (AdaDelta(), 3000),
            (Adam(0.1), 800),
        ],
        ids=lambda value: getattr(value, "name", value),
    )
    def test_converges_on_quadratic(self, optimizer, steps):
        trajectory = quadratic_descent(optimizer.clone(), steps=steps)
        assert abs(trajectory[-1]) < abs(trajectory[0])
        assert abs(trajectory[-1]) < 0.5

    @pytest.mark.parametrize(
        "optimizer", ALL_OPTIMIZERS, ids=lambda o: o.name
    )
    def test_per_coordinate_independence(self, optimizer):
        """A zero-gradient coordinate must not move."""
        optimizer = optimizer.clone()
        params = np.array([1.0, 1.0])
        new = optimizer.step(params, np.array([1.0, 0.0]))
        assert new[1] == 1.0
        assert new[0] != 1.0

    def test_input_not_mutated(self):
        params = np.array([1.0, 2.0])
        Adam(0.1).step(params, np.array([1.0, 1.0]))
        assert np.array_equal(params, [1.0, 2.0])


class TestStateManagement:
    def test_state_dict_roundtrip(self):
        source = Adam(0.1)
        for __ in range(5):
            source.step(np.array([1.0]), np.array([0.5]))
        clone = Adam(0.1)
        clone.load_state_dict(source.state_dict())
        a = source.step(np.array([1.0]), np.array([0.5]))
        b = clone.step(np.array([1.0]), np.array([0.5]))
        assert a == pytest.approx(b)

    def test_state_dict_is_deep_copy(self):
        optimizer = Momentum(0.1)
        optimizer.step(np.array([0.0]), np.array([1.0]))
        snapshot = optimizer.state_dict()
        optimizer.step(np.array([0.0]), np.array([1.0]))
        restored = Momentum(0.1)
        restored.load_state_dict(snapshot)
        # The snapshot reflects one step, not two.
        a = restored.step(np.array([0.0]), np.array([1.0]))
        fresh = Momentum(0.1)
        fresh.step(np.array([0.0]), np.array([1.0]))
        b = fresh.step(np.array([0.0]), np.array([1.0]))
        assert a == pytest.approx(b)

    def test_malformed_state_rejected(self):
        with pytest.raises(ValidationError):
            Adam(0.1).load_state_dict({"bogus": 1})

    @pytest.mark.parametrize(
        "optimizer", ALL_OPTIMIZERS, ids=lambda o: o.name
    )
    def test_state_that_cannot_step_is_rejected_on_load(self, optimizer):
        """Arrays that disagree with ``dim`` (or are not 1-D float64)
        used to load silently and fail steps later, inside a
        half-applied update, with numpy's broadcast error."""
        source = optimizer.clone()
        source.step(np.zeros(3), np.ones(3))
        target = optimizer.clone()
        target.load_state_dict(source.state_dict())
        before = target.state_dict()

        def rejected(payload, match):
            with pytest.raises(ValidationError, match=match):
                target.load_state_dict(payload)

        for key in optimizer.arrays:
            for bad in (
                np.zeros(4),
                np.zeros((3, 1)),
                np.zeros(3, dtype=np.float32),
                [0.0, 0.0, 0.0],
            ):
                payload = source.state_dict()
                payload["state"][key] = bad
                rejected(payload, rf"{key}.*\(3,\)")
            payload = source.state_dict()
            del payload["state"][key]
            rejected(payload, key)
        if optimizer.arrays:
            rejected({**source.state_dict(), "dim": 4}, r"\(3,\).*\(4,\)")
        if source.state_dict()["state"]:
            rejected({**source.state_dict(), "dim": None}, "dim=None")
        # A refused payload changed nothing; the optimizer still steps.
        after = target.state_dict()
        assert after["dim"] == before["dim"] == 3
        for key, value in before["state"].items():
            assert np.array_equal(after["state"][key], value)
        assert (
            target.step(np.zeros(3), np.ones(3)).tobytes()
            == source.step(np.zeros(3), np.ones(3)).tobytes()
        )

    def test_reset(self):
        optimizer = Adam(0.1)
        optimizer.step(np.array([0.0]), np.array([1.0]))
        optimizer.reset()
        new = optimizer.step(np.array([0.0]), np.array([123.0]))
        assert new[0] == pytest.approx(-0.1, rel=1e-3)

    def test_clone_has_same_hyperparameters_fresh_state(self):
        optimizer = RMSProp(learning_rate=0.25, rho=0.8)
        optimizer.step(np.array([0.0]), np.array([1.0]))
        duplicate = optimizer.clone()
        assert duplicate.learning_rate == 0.25
        assert duplicate.rho == 0.8
        assert duplicate._state == {}

    def test_dim_locked_after_first_step(self):
        optimizer = ConstantLR(0.1)
        optimizer.step(np.zeros(3), np.zeros(3))
        with pytest.raises(ValidationError, match="sized"):
            optimizer.step(np.zeros(4), np.zeros(4))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            ConstantLR(0.1).step(np.zeros(3), np.zeros(2))


class TestMakeOptimizer:
    def test_all_names(self):
        for name in (
            "constant",
            "inverse_scaling",
            "momentum",
            "adagrad",
            "rmsprop",
            "adadelta",
            "adam",
        ):
            assert make_optimizer(name).name == name

    def test_kwargs_forwarded(self):
        optimizer = make_optimizer("adam", learning_rate=0.42)
        assert optimizer.learning_rate == 0.42

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown optimizer"):
            make_optimizer("sgdtron")

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValidationError):
            Adam(learning_rate=-1.0)
        with pytest.raises(ValidationError):
            RMSProp(rho=1.5)
        with pytest.raises(ValidationError):
            Momentum(beta=-0.1)

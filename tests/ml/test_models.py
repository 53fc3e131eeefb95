"""Unit tests for the linear SGD models."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import ValidationError
from repro.ml.losses import SquaredLoss
from repro.ml.models import (
    LinearRegression,
    LinearSVM,
    LogisticRegression,
)
from repro.ml.optim import Adam, ConstantLR
from repro.ml.regularizers import L2
from repro.ml.sgd import SGDTrainer

# Several tests intentionally stop training at an iteration cap.
pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.exceptions.ConvergenceWarning"
)


def linear_data(rng, rows=200, dim=4, noise=0.05):
    x = rng.standard_normal((rows, dim))
    w = rng.standard_normal(dim)
    y = x @ w + 0.5 + noise * rng.standard_normal(rows)
    return x, y, w


def classification_data(rng, rows=300, dim=5):
    x = rng.standard_normal((rows, dim))
    w = rng.standard_normal(dim)
    y = np.where(x @ w + 0.2 >= 0, 1.0, -1.0)
    return x, y


class TestLinearRegression:
    def test_learns_linear_concept(self, rng):
        x, y, w = linear_data(rng)
        model = LinearRegression(num_features=4)
        trainer = SGDTrainer(model, Adam(0.05))
        trainer.train(x, y, max_iterations=2000, tolerance=1e-8, seed=0)
        assert model.weights == pytest.approx(w, abs=0.05)
        assert model.intercept == pytest.approx(0.5, abs=0.05)

    def test_predict_equals_decision(self, rng):
        model = LinearRegression(num_features=3)
        model.weights = rng.standard_normal(3)
        x = rng.standard_normal((5, 3))
        assert np.array_equal(
            model.predict(x), model.decision_function(x)
        )

    def test_no_intercept(self, rng):
        model = LinearRegression(num_features=2, fit_intercept=False)
        assert model.num_params == 2
        grad, __ = model.gradient(
            rng.standard_normal((4, 2)), rng.standard_normal(4)
        )
        assert grad.shape == (2,)


class TestClassifiers:
    @pytest.mark.parametrize(
        "model_cls", [LinearSVM, LogisticRegression]
    )
    def test_learns_separable_concept(self, model_cls, rng):
        x, y = classification_data(rng)
        model = model_cls(num_features=5, regularizer=L2(1e-4))
        trainer = SGDTrainer(model, Adam(0.05))
        trainer.train(x, y, max_iterations=1500, tolerance=1e-9, seed=0)
        accuracy = float(np.mean(model.predict(x) == y))
        assert accuracy > 0.95

    @pytest.mark.parametrize(
        "model_cls", [LinearSVM, LogisticRegression]
    )
    def test_predictions_are_pm_one(self, model_cls, rng):
        model = model_cls(num_features=3)
        predictions = model.predict(rng.standard_normal((10, 3)))
        assert set(np.unique(predictions)) <= {-1.0, 1.0}

    def test_logistic_proba_in_unit_interval(self, rng):
        model = LogisticRegression(num_features=3)
        model.weights = rng.standard_normal(3)
        proba = model.predict_proba(rng.standard_normal((20, 3)))
        assert np.all((proba >= 0) & (proba <= 1))


class TestSparseSupport:
    def test_sparse_dense_agreement(self, rng):
        dense = rng.standard_normal((20, 6))
        dense[dense < 0.5] = 0.0
        sparse = sp.csr_matrix(dense)
        model = LinearSVM(num_features=6)
        model.weights = rng.standard_normal(6)
        model.intercept = 0.3
        assert model.decision_function(sparse) == pytest.approx(
            model.decision_function(dense)
        )
        grad_sparse, __ = model.gradient(sparse, np.ones(20))
        grad_dense, __ = model.gradient(dense, np.ones(20))
        assert grad_sparse == pytest.approx(grad_dense)

    def test_trains_on_sparse(self, rng):
        x, y = classification_data(rng, rows=200, dim=8)
        x[np.abs(x) < 0.3] = 0.0
        sparse = sp.csr_matrix(x)
        model = LinearSVM(num_features=8)
        trainer = SGDTrainer(model, Adam(0.05))
        trainer.train(
            sparse, y, max_iterations=800, tolerance=1e-9, seed=0
        )
        assert float(np.mean(model.predict(sparse) == y)) > 0.9


class TestGradient:
    def test_gradient_matches_numerical(self, rng):
        model = LinearRegression(num_features=3, regularizer=L2(0.1))
        model.weights = rng.standard_normal(3)
        model.intercept = 0.2
        x = rng.standard_normal((15, 3))
        y = rng.standard_normal(15)
        grad, __ = model.gradient(x, y)
        eps = 1e-6
        packed = model.params_vector()
        for i in range(len(packed)):
            up, down = packed.copy(), packed.copy()
            up[i] += eps
            down[i] -= eps
            model.set_params_vector(up)
            f_up = model.objective(x, y)
            model.set_params_vector(down)
            f_down = model.objective(x, y)
            model.set_params_vector(packed)
            assert grad[i] == pytest.approx(
                (f_up - f_down) / (2 * eps), abs=1e-4
            )

    def test_objective_includes_penalty(self, rng):
        model = LinearRegression(num_features=2, regularizer=L2(1.0))
        model.weights = np.array([1.0, 1.0])
        x = np.zeros((3, 2))
        y = np.zeros(3)
        assert model.objective(x, y) == pytest.approx(1.0)

    def test_regularizer_not_applied_to_intercept(self):
        model = LinearRegression(num_features=1, regularizer=L2(10.0))
        model.weights = np.array([0.0])
        model.intercept = 100.0
        x = np.array([[0.0]])
        y = np.array([100.0])
        grad, __ = model.gradient(x, y)
        # Loss gradient on intercept is 0 at perfect fit; reg must not
        # add anything.
        assert grad[-1] == 0.0


class TestParameterPacking:
    def test_roundtrip(self, rng):
        model = LinearSVM(num_features=4)
        packed = rng.standard_normal(5)
        model.set_params_vector(packed)
        assert model.params_vector() == pytest.approx(packed)
        assert model.intercept == pytest.approx(packed[-1])

    def test_wrong_size_rejected(self):
        model = LinearSVM(num_features=4)
        with pytest.raises(ValidationError):
            model.set_params_vector(np.zeros(3))

    def test_params_vector_is_copy(self):
        model = LinearSVM(num_features=2)
        packed = model.params_vector()
        packed[0] = 99.0
        assert model.weights[0] == 0.0


class TestStateAndCloning:
    def test_state_dict_roundtrip(self, rng):
        model = LinearRegression(num_features=3)
        model.weights = rng.standard_normal(3)
        model.intercept = 1.5
        model.updates_applied = 7
        clone = LinearRegression(num_features=3)
        clone.load_state_dict(model.state_dict())
        assert clone.weights == pytest.approx(model.weights)
        assert clone.intercept == model.intercept
        assert clone.updates_applied == 7

    def test_state_dict_wrong_dim_rejected(self):
        model = LinearRegression(num_features=3)
        other = LinearRegression(num_features=4)
        with pytest.raises(ValidationError):
            model.load_state_dict(other.state_dict())

    def test_clone_is_untrained(self, rng):
        model = LinearSVM(num_features=2, regularizer=L2(0.5))
        model.weights = rng.standard_normal(2)
        model.updates_applied = 3
        duplicate = model.clone()
        assert np.all(duplicate.weights == 0)
        assert duplicate.updates_applied == 0
        assert duplicate.regularizer.strength == 0.5

    def test_reset(self, rng):
        model = LinearSVM(num_features=2)
        model.weights = rng.standard_normal(2)
        model.reset()
        assert np.all(model.weights == 0)


class TestValidation:
    def test_feature_width_checked(self, rng):
        model = LinearRegression(num_features=3)
        with pytest.raises(ValidationError, match="columns"):
            model.decision_function(rng.standard_normal((2, 4)))

    def test_1d_features_rejected(self):
        model = LinearRegression(num_features=3)
        with pytest.raises(ValidationError, match="2-D"):
            model.decision_function(np.zeros(3))

    def test_invalid_num_features(self):
        with pytest.raises(ValidationError):
            LinearRegression(num_features=0)

    def test_default_loss_wiring(self):
        assert isinstance(LinearRegression(1).loss, SquaredLoss)

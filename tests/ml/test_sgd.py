"""Unit tests for the mini-batch SGD trainer."""

import re
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import ConvergenceWarning, ValidationError
from repro.execution.cost import CostTracker
from repro.execution.engine import LocalExecutionEngine
from repro.ml.batch import Block
from repro.ml.models import LinearRegression, LinearSVM
from repro.ml.optim import Adam, ConstantLR, RMSProp
from repro.ml.regularizers import L2
from repro.ml.sgd import SGDTrainer
from repro.pipeline.component import Features

# Several tests intentionally stop training at an iteration cap.
pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.exceptions.ConvergenceWarning"
)


def make_problem(rng, rows=100, dim=3):
    x = rng.standard_normal((rows, dim))
    w = np.array([1.0, -2.0, 0.5])
    y = x @ w + 0.25
    return x, y


class TestStep:
    def test_single_step_updates_model(self, rng):
        x, y = make_problem(rng)
        model = LinearRegression(num_features=3)
        trainer = SGDTrainer(model, ConstantLR(0.01))
        before = model.params_vector()
        objective = trainer.step(x, y)
        assert objective > 0
        assert not np.array_equal(model.params_vector(), before)
        assert model.updates_applied == 1

    def test_step_charges_tracker(self, rng):
        x, y = make_problem(rng)
        model = LinearRegression(num_features=3)
        trainer = SGDTrainer(model, ConstantLR(0.01))
        tracker = CostTracker()
        trainer.step(x, y, tracker)
        assert tracker.category("training") > 0

    def test_conditional_independence(self, rng):
        """Two interleaved-step runs with the same (model, optimizer)
        state produce the same next step — §3.3's argument."""
        x, y = make_problem(rng)
        model_a = LinearRegression(num_features=3)
        trainer_a = SGDTrainer(model_a, Adam(0.05))
        trainer_a.step(x[:50], y[:50])
        state_model = model_a.state_dict()
        state_opt = trainer_a.optimizer.state_dict()

        # Resume later on a fresh pair of objects.
        model_b = LinearRegression(num_features=3)
        model_b.load_state_dict(state_model)
        optimizer_b = Adam(0.05)
        optimizer_b.load_state_dict(state_opt)
        trainer_b = SGDTrainer(model_b, optimizer_b)

        trainer_a.step(x[50:], y[50:])
        trainer_b.step(x[50:], y[50:])
        assert model_b.params_vector() == pytest.approx(
            model_a.params_vector()
        )


    @pytest.mark.parametrize("as_matrix", [np.asarray, sp.csr_matrix])
    @pytest.mark.parametrize("rows", [(1, 2), (0, None)])
    def test_misaligned_labels_rejected_for_every_range(
        self, rng, as_matrix, rows
    ):
        """5 rows, 9 labels: a range used to hide the mismatch (the
        only length check was the loss's, after ``targets[1:2]``) and
        trained on ``y[1]``; opening the block finds it, once."""
        x, y = as_matrix(rng.standard_normal((5, 3))), rng.standard_normal(9)
        model = LinearRegression(num_features=3)
        trainer = SGDTrainer(model, ConstantLR(0.01))
        with pytest.raises(ValidationError, match=r"5 rows.*\(9,\)"):
            trainer.step(x, y, CostTracker(), *rows)
        with pytest.raises(ValidationError, match=r"5 rows.*\(9,\)"):
            Block(x, y)
        assert model.updates_applied == 0
        assert not model.params_vector().any()

    def test_block_without_targets_cannot_be_trained_on(self, rng):
        trainer = SGDTrainer(LinearRegression(3), ConstantLR(0.01))
        with pytest.raises(ValidationError, match="without targets"):
            trainer.step(Block(rng.standard_normal((4, 3))))


class TestChecksBeforeAnythingMoves:
    """The online update checks once per chunk, not once per row, and
    still before the first row moves anything: the error (type and
    message as when every row was checked) leaves parameters,
    optimizer state, update count and cost tracker byte for byte."""

    @staticmethod
    def warm_learner(rng, sparse):
        if sparse:
            model = LinearSVM(8, regularizer=L2(1e-3))
            trainer = SGDTrainer(model, Adam(0.05))
            matrix = sp.random(6, 8, density=0.4, format="csr", rng=rng)
            labels = rng.choice([-1.0, 1.0], size=6)
        else:
            model = LinearRegression(8, regularizer=L2(1e-4))
            trainer = SGDTrainer(model, RMSProp(0.05))
            matrix = rng.standard_normal((6, 8))
            labels = rng.standard_normal(6)
        engine = LocalExecutionEngine()
        engine.online_update(trainer, Features(matrix, labels), 1)
        return engine, trainer, matrix, labels

    @staticmethod
    def snapshot(engine, trainer):
        state = trainer.optimizer.state_dict()
        return (
            trainer.model.params.tobytes(),
            {k: np.asarray(v).tobytes() for k, v in state["state"].items()},
            state["dim"],
            trainer.model.updates_applied,
            engine.tracker.state_dict(),
        )

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
    @pytest.mark.parametrize(
        "case, message",
        [
            ("width", "features have 9 columns, model expects 8"),
            ("targets", "cannot train on a block without targets"),
            ("sizing", "optimizer was sized for 4 parameters, got 9"),
        ],
    )
    def test_a_failed_check_moves_nothing(self, rng, sparse, case, message):
        engine, trainer, matrix, labels = self.warm_learner(rng, sparse)
        if case == "width":
            wide = sp.hstack([matrix, matrix[:, :1]], format="csr") if (
                sparse
            ) else np.hstack([matrix, matrix[:, :1]])
            chunk = Features(wide, labels)
        elif case == "targets":
            chunk = Features(matrix, None)
        else:
            other = trainer.optimizer.clone()
            other.step(np.zeros(4), np.ones(4))  # sized for 4
            trainer.optimizer.load_state_dict(other.state_dict())
            chunk = Features(matrix, labels)
        before = self.snapshot(engine, trainer)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            engine.online_update(trainer, chunk, 1)
        assert self.snapshot(engine, trainer) == before


class TestTrain:
    def test_full_batch_converges(self, rng):
        x, y = make_problem(rng)
        model = LinearRegression(num_features=3)
        trainer = SGDTrainer(model, Adam(0.05))
        result = trainer.train(
            x, y, max_iterations=3000, tolerance=1e-8, seed=0
        )
        assert result.converged
        assert result.final_objective < 0.01
        assert len(result.objective_history) == result.iterations

    def test_minibatch_mode(self, rng):
        x, y = make_problem(rng)
        model = LinearRegression(num_features=3)
        trainer = SGDTrainer(model, Adam(0.05))
        result = trainer.train(
            x, y, batch_size=10, max_iterations=50,
            tolerance=0.0, seed=0,
        )
        assert result.iterations == 50

    def test_batch_size_larger_than_data_uses_full_batch(self, rng):
        x, y = make_problem(rng, rows=20)
        model = LinearRegression(num_features=3)
        trainer = SGDTrainer(model, Adam(0.05))
        result = trainer.train(
            x, y, batch_size=500, max_iterations=5,
            tolerance=0.0, seed=0,
        )
        assert result.iterations == 5

    def test_warns_on_non_convergence(self, rng):
        x, y = make_problem(rng)
        model = LinearRegression(num_features=3)
        trainer = SGDTrainer(model, ConstantLR(0.001))
        with pytest.warns(ConvergenceWarning):
            result = trainer.train(
                x, y, max_iterations=3, tolerance=1e-12, seed=0
            )
        assert not result.converged
        assert result.iterations == 3

    def test_deterministic_given_seed(self, rng):
        x, y = make_problem(rng)
        results = []
        for __ in range(2):
            model = LinearRegression(num_features=3)
            trainer = SGDTrainer(model, Adam(0.05))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                trainer.train(
                    x, y, batch_size=16, max_iterations=40,
                    tolerance=0.0, seed=123,
                )
            results.append(model.params_vector())
        assert results[0] == pytest.approx(results[1])

    def test_validation(self, rng):
        x, y = make_problem(rng)
        model = LinearRegression(num_features=3)
        trainer = SGDTrainer(model, Adam(0.05))
        with pytest.raises(ValidationError):
            trainer.train(x, y[:-1])
        with pytest.raises(ValidationError):
            trainer.train(np.empty((0, 3)), np.empty(0))
        with pytest.raises(ValidationError):
            trainer.train(x, y, batch_size=0)
        with pytest.raises(ValidationError):
            trainer.train(x, y, max_iterations=0)

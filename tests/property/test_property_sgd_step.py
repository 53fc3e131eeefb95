"""Generated properties of the in-place SGD step.

**Identity.** The step the trainer runs — a block opened once, a
gradient packed as it is computed, an optimizer updating the packed
parameters in place out of scratch arrays — ends on the bytes of the
step it replaced. That step is kept below as the reference, moved
here from ``ml/models/base.py``, ``ml/losses.py`` and ``ml/optim/``:
every range re-validated, ``np.mean`` twice, ``np.concatenate`` to pack
and a fresh array for every intermediate of the seven update rules.
Compared with ``tobytes()`` / ``==``, never a tolerance: model state,
every optimizer state array, the cost total and each objective that
is evaluated (as ``online_step`` asks: a chunk's last range only).

**Aliasing.** In-place updates make sharing observable, so everything
that leaves the model or the optimizer is a copy and everything handed
in is copied: a snapshot taken at step *k* is not moved by step *k+1*.

Blocks are drawn from ``repro.utils.rng`` seeds; a failure names the
seed and the configuration, and
``pytest tests/property/test_property_sgd_step.py -k "seed<N>"``
replays it.
"""

import copy
import itertools
import pickle

import numpy as np
import pytest
import scipy.sparse as sp

from repro.datasets.url import make_url_pipeline
from repro.execution.cost import CostTracker
from repro.execution.engine import LocalExecutionEngine
from repro.ml.batch import Block
from repro.ml.losses import HingeLoss
from repro.ml.models import LinearRegression, LinearSVM, LogisticRegression
from repro.ml.optim import (
    AdaDelta,
    AdaGrad,
    Adam,
    ConstantLR,
    InverseScalingLR,
    Momentum,
    RMSProp,
)
from repro.ml.regularizers import L1, L2
from repro.ml.sgd import SGDTrainer
from repro.persistence import (
    DeploymentBundle,
    open_envelope,
    serialize_bundle,
)
from repro.persistence import MAGIC as BUNDLE_MAGIC
from repro.serving.registry import ModelRegistry
from repro.utils.rng import ensure_rng
from tests.property.test_property_row_range import (
    random_csr,
    random_dense,
    ranges,
)

SEEDS = range(24)
WIDTHS = (1, 2, 7, 64, 1024)
MODELS = (LinearSVM, LogisticRegression, LinearRegression)
REGULARIZERS = (lambda: None, lambda: L2(1e-3), lambda: L1(1e-2))
OPTIMIZERS = (
    lambda: ConstantLR(0.05),
    lambda: InverseScalingLR(0.05),
    lambda: Momentum(0.05),
    lambda: AdaGrad(0.05),
    lambda: RMSProp(0.05),
    lambda: AdaDelta(),
    lambda: Adam(0.05),
)


# ----------------------------------------------------------------------
# The reference: the step as it was before it went in place
# ----------------------------------------------------------------------
REFERENCE_LOSS_VALUE = {
    "squared": lambda z, y: float(0.5 * np.mean((z - y) * (z - y))),
    "hinge": lambda z, y: float(np.mean(np.maximum(1.0 - y * z, 0.0))),
    "logistic": lambda z, y: float(np.mean(np.logaddexp(0.0, -(y * z)))),
}


def _zeros(state, key, like):
    if key not in state:
        state[key] = np.zeros_like(like, dtype=np.float64)
    return state[key]


def _bump(state):
    state["t"] = int(state.get("t", 0)) + 1
    return state["t"]


def _constant(opt, state, grad):
    return -opt.learning_rate * grad


def _inverse_scaling(opt, state, grad):
    eta = opt.learning_rate / _bump(state) ** opt.power
    return -eta * grad


def _momentum(opt, state, grad):
    velocity = _zeros(state, "velocity", grad)
    velocity *= opt.beta
    velocity -= opt.learning_rate * grad
    return velocity.copy()


def _adagrad(opt, state, grad):
    accumulator = _zeros(state, "sq_sum", grad)
    accumulator += grad * grad
    return -opt.learning_rate * grad / (np.sqrt(accumulator) + opt.epsilon)


def _rmsprop(opt, state, grad):
    average = _zeros(state, "sq_avg", grad)
    average *= opt.rho
    average += (1.0 - opt.rho) * grad * grad
    return -opt.learning_rate * grad / np.sqrt(average + opt.epsilon)


def _adadelta(opt, state, grad):
    sq_avg = _zeros(state, "sq_avg", grad)
    delta_avg = _zeros(state, "delta_avg", grad)
    sq_avg *= opt.rho
    sq_avg += (1.0 - opt.rho) * grad * grad
    delta = (
        -np.sqrt(delta_avg + opt.epsilon)
        / np.sqrt(sq_avg + opt.epsilon)
        * grad
    )
    delta_avg *= opt.rho
    delta_avg += (1.0 - opt.rho) * delta * delta
    return delta


def _adam(opt, state, grad):
    first = _zeros(state, "m", grad)
    second = _zeros(state, "v", grad)
    step_index = _bump(state)
    first *= opt.beta1
    first += (1.0 - opt.beta1) * grad
    second *= opt.beta2
    second += (1.0 - opt.beta2) * grad * grad
    m_hat = first / (1.0 - opt.beta1**step_index)
    v_hat = second / (1.0 - opt.beta2**step_index)
    return -opt.learning_rate * m_hat / (np.sqrt(v_hat) + opt.epsilon)


REFERENCE_UPDATES = {
    "constant": _constant,
    "inverse_scaling": _inverse_scaling,
    "momentum": _momentum,
    "adagrad": _adagrad,
    "rmsprop": _rmsprop,
    "adadelta": _adadelta,
    "adam": _adam,
}


class Reference:
    """Model + optimizer + cost tracker stepped the allocating way.
    Reads the configuration (and the starting parameters) off a real
    pair; shares no array with it."""

    def __init__(self, model, optimizer):
        self.model, self.optimizer = model, optimizer  # configuration
        self.weights = model.weights.copy()
        self.intercept = model.intercept
        self.state = {}
        self.cost = CostTracker()

    def gradient(self, features, targets, start, stop):
        config = self.model
        targets = np.asarray(targets, dtype=np.float64)[start:stop]
        if not sp.issparse(features):
            rows = np.asarray(features[start:stop], dtype=np.float64)
            scores = np.add.reduce(rows * self.weights, axis=1)
            values = rows.size
        elif (start, stop) == (0, features.shape[0]):
            rows = features
            scores = features @ self.weights
            values = features.nnz
        else:
            indptr = features.tocsr().indptr
            entries = slice(indptr[start], indptr[stop])
            owner = np.repeat(
                np.arange(stop - start),
                indptr[start + 1:stop + 1] - indptr[start:stop],
            )
            indices, data = features.indices[entries], features.data[entries]
            rows = owner, indices, data
            scores = np.bincount(
                owner,
                weights=data * self.weights[indices],
                minlength=stop - start,
            )
            values = int(indptr[stop] - indptr[start])
        decision = scores + self.intercept
        dloss = config.loss.dvalue(decision, targets)
        if isinstance(rows, tuple):
            sums = np.bincount(
                indices,
                weights=data * dloss[owner],
                minlength=config.num_features,
            )
        else:
            sums = rows.T @ dloss
        grad_w = sums / len(targets)
        grad_w = grad_w + config.regularizer.gradient(self.weights)
        objective = REFERENCE_LOSS_VALUE[config.loss.name](
            decision, targets
        ) + config.regularizer.penalty(self.weights)
        if config.fit_intercept:
            grad_w = np.concatenate([grad_w, [float(dloss.mean())]])
        return grad_w, objective, values

    def step(self, features, targets, start, stop):
        grad, objective, values = self.gradient(
            features, targets, start, stop
        )
        if self.model.fit_intercept:
            params = np.concatenate([self.weights, [self.intercept]])
        else:
            params = self.weights.copy()
        delta = REFERENCE_UPDATES[self.optimizer.name](
            self.optimizer, self.state, grad
        )
        params = np.add(params, delta, out=delta)
        if self.model.fit_intercept:
            self.weights, self.intercept = params[:-1], float(params[-1])
        else:
            self.weights = params
        self.cost.charge_training(values, "sgd_step")
        return objective


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
def signed_zeros(rng, values):
    """Sprinkle ``-0.0`` (and ``0.0``) over an array in place: the
    values ``x + 0.0`` and ``x * -k`` are not no-ops for."""
    values[rng.random(values.shape) < 0.1] = -0.0
    values[rng.random(values.shape) < 0.1] = 0.0
    return values


def csr_block(rng, rows, width):
    """``random_csr`` (empty rows, stored ``0.0``) plus stored ``-0.0``."""
    features = random_csr(rng, rows, width)
    signed_zeros(rng, features.data)
    return features


def dense_block(rng, rows, width):
    return signed_zeros(rng, random_dense(rng, rows, width))


def start_from(rng, model):
    """Random starting parameters with both zeros among them."""
    model.weights = signed_zeros(rng, rng.standard_normal(model.num_features))
    model.intercept = float(rng.standard_normal()) * model.fit_intercept


def as_bytes(state):
    """A ``state_dict`` with every array frozen to its bytes."""
    return {
        key: as_bytes(value)
        if isinstance(value, dict)
        else value.tobytes()
        if isinstance(value, np.ndarray)
        else value
        for key, value in state.items()
    }


# ----------------------------------------------------------------------
# Identity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("make_block", [csr_block, dense_block])
@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
def test_in_place_step_matches_the_allocating_reference(seed, make_block):
    rng = ensure_rng(seed)
    rows = int(rng.integers(1, 13))
    width = WIDTHS[seed % len(WIDTHS)]
    features = make_block(rng, rows, width)
    labels = {
        "classification": rng.choice([-1.0, 1.0], size=rows),
        "regression": rng.standard_normal(rows),
    }
    for model_type, make_regularizer, make_optimizer, fit_intercept in (
        itertools.product(MODELS, REGULARIZERS, OPTIMIZERS, (True, False))
    ):
        for batch_rows in (1, 3, None):
            model = model_type(
                width,
                regularizer=make_regularizer(),
                fit_intercept=fit_intercept,
            )
            start_from(ensure_rng(seed), model)
            optimizer = make_optimizer()
            trainer = SGDTrainer(model, optimizer)
            engine = LocalExecutionEngine()
            reference = Reference(model, make_optimizer())
            targets = labels[model.task]
            where = (
                f"seed={seed} {make_block.__name__} {model!r} "
                f"{optimizer!r} intercept={fit_intercept} k={batch_rows}"
            )
            # The whole block is walked twice, so that it too takes
            # every rule through a second step.
            passes = 2 if batch_rows is None else 1
            for __ in range(passes):
                block = Block(features, targets)  # as online_step does
                for start, stop in ranges(rows, batch_rows or rows):
                    last = stop == rows  # the one online_step reads
                    got = engine.train_step(
                        trainer, block, None, start, stop, last
                    )
                    want = reference.step(features, targets, start, stop)
                    assert got is None if not last else (
                        np.float64(got).tobytes()
                        == np.float64(want).tobytes()
                    ), f"{where} rows=[{start},{stop})"
            state = model.state_dict()
            assert state["weights"].tobytes() == (
                reference.weights.tobytes()
            ), where
            assert np.float64(state["intercept"]).tobytes() == (
                np.float64(reference.intercept).tobytes()
            ), where
            steps = passes * len(ranges(rows, batch_rows or rows))
            assert state["updates_applied"] == steps, where
            assert as_bytes(optimizer.state_dict()) == {
                "dim": model.num_params,
                "state": as_bytes(reference.state),
            }, where
            assert list(optimizer.state_dict()["state"]) == list(
                reference.state
            ), where
            assert engine.total_cost() == reference.cost.total(), where


# ----------------------------------------------------------------------
# Aliasing
# ----------------------------------------------------------------------
def stepped(seed, make_block, make_optimizer, fit_intercept=True, steps=3):
    """A trainer a few single-row steps into a block, with what it
    needs to take more."""
    rng = ensure_rng(seed)
    width = WIDTHS[seed % len(WIDTHS)]
    features = make_block(rng, 8, width)
    targets = rng.choice([-1.0, 1.0], size=8)
    model = LinearSVM(width, L2(1e-3), fit_intercept=fit_intercept)
    start_from(rng, model)
    trainer = SGDTrainer(model, make_optimizer())
    block = Block(features, targets)
    for row in range(steps):
        trainer.step(block, None, None, row, row + 1)

    def more():
        for row in range(steps, 8):
            trainer.step(block, None, None, row, row + 1)
        trainer.step(block)

    return trainer, more


@pytest.mark.parametrize("make_block", [csr_block, dense_block])
@pytest.mark.parametrize("make_optimizer", OPTIMIZERS)
@pytest.mark.parametrize("seed", range(4), ids=lambda s: f"seed{s}")
def test_a_snapshot_is_not_moved_by_later_steps(
    seed, make_optimizer, make_block, tmp_path
):
    trainer, more = stepped(seed, make_block, make_optimizer, seed % 2 == 0)
    model, optimizer = trainer.model, trainer.optimizer
    pipeline = make_url_pipeline(hash_features=model.num_features)
    registry = ModelRegistry(tmp_path / "registry")

    now = as_bytes(model.state_dict())
    optimizer_now = as_bytes(optimizer.state_dict())
    snapshots = {
        "state_dict": model.state_dict(),
        "deepcopy": copy.deepcopy(model).state_dict(),
        "pickle": pickle.loads(pickle.dumps(model)).state_dict(),
    }
    live = {
        "deepcopy": copy.deepcopy(model),
        "pickle": pickle.loads(pickle.dumps(model)),
        "clone": model.clone(),
    }
    optimizer_snapshots = {
        "state_dict": optimizer.state_dict(),
        "deepcopy": copy.deepcopy(optimizer),
        "pickle": pickle.loads(pickle.dumps(optimizer)),
    }
    packed = model.params_vector()
    packed_now = packed.tobytes()
    sealed = serialize_bundle(DeploymentBundle(pipeline, model, optimizer))
    version = registry.register(pipeline, model, optimizer).version
    for other in live.values():
        assert not np.shares_memory(other.params, model.params)
        assert np.shares_memory(other.weights, other.params)

    more()

    assert as_bytes(model.state_dict()) != now
    for name, snapshot in snapshots.items():
        assert as_bytes(snapshot) == now, name
    for name in ("deepcopy", "pickle"):
        assert as_bytes(live[name].state_dict()) == now, name
    assert not live["clone"].params.any()
    assert live["clone"].updates_applied == 0
    assert packed.tobytes() == packed_now
    for name, snapshot in optimizer_snapshots.items():
        if name != "state_dict":
            snapshot = snapshot.state_dict()
        assert as_bytes(snapshot) == optimizer_now, name
    for bundle in (
        open_envelope(sealed, BUNDLE_MAGIC, key="bundle"),
        registry.load(version),
    ):
        assert as_bytes(bundle.model.state_dict()) == now
        assert as_bytes(bundle.optimizer.state_dict()) == optimizer_now


@pytest.mark.parametrize("make_optimizer", OPTIMIZERS)
@pytest.mark.parametrize("fit_intercept", [True, False])
def test_an_array_handed_in_is_copied(make_optimizer, fit_intercept):
    trainer, more = stepped(3, csr_block, make_optimizer, fit_intercept)
    model, optimizer = trainer.model, trainer.optimizer
    rng = ensure_rng(11)

    packed = rng.standard_normal(model.num_params)
    state = {**model.state_dict(), "weights": rng.standard_normal(
        model.num_features
    )}
    optimizer_state = optimizer.state_dict()
    handed = [packed, state["weights"]] + [
        value
        for value in optimizer_state["state"].values()
        if isinstance(value, np.ndarray)
    ]
    before = [array.tobytes() for array in handed]

    model.load_state_dict(state)
    assert model.weights.tobytes() == state["weights"].tobytes()
    model.set_params_vector(packed)
    assert model.params_vector().tobytes() == packed.tobytes()
    optimizer.load_state_dict(optimizer_state)
    more()
    assert [array.tobytes() for array in handed] == before
    # ... and the other way round: writing to them reaches nothing.
    frozen = as_bytes(model.state_dict()), as_bytes(optimizer.state_dict())
    for array in handed:
        array += 1.0
    assert frozen == (
        as_bytes(model.state_dict()),
        as_bytes(optimizer.state_dict()),
    )


def test_a_gradient_is_not_moved_by_later_calls():
    trainer, more = stepped(5, dense_block, OPTIMIZERS[0])
    model = trainer.model
    features = dense_block(ensure_rng(5), 4, model.num_features)
    first, __ = model.gradient(features, np.ones(4), 0, 2)
    kept = first.tobytes()
    second, __ = model.gradient(features, -np.ones(4), 2, 4)
    more()
    assert first.tobytes() == kept != second.tobytes()
    assert not np.shares_memory(first, model.params)


# ----------------------------------------------------------------------
# Scratch is not state
# ----------------------------------------------------------------------
#: ``vars()`` of a model before the packed vector: what every bundle,
#: checkpoint and registry version on disk holds, and still must.
PICKLED_MODEL_KEYS = [
    "num_features",
    "loss",
    "regularizer",
    "fit_intercept",
    "weights",
    "intercept",
    "updates_applied",
]


@pytest.mark.parametrize("make_optimizer", OPTIMIZERS)
def test_pickles_do_not_hold_scratch(make_optimizer):
    trainer, more = stepped(2, csr_block, make_optimizer)
    model, optimizer = trainer.model, trainer.optimizer
    assert sorted(model.__getstate__()) == sorted(PICKLED_MODEL_KEYS)
    assert "_scratch" in vars(optimizer)
    assert "_scratch" not in optimizer.__getstate__()
    for thing in (model, optimizer):
        # A copy that never stepped has allocated nothing yet.
        cold = pickle.loads(pickle.dumps(thing))
        assert pickle.dumps(cold) == pickle.dumps(thing)
        assert pickle.dumps(copy.deepcopy(thing)) == pickle.dumps(thing)
    assert "_scratch" not in vars(pickle.loads(pickle.dumps(optimizer)))
    fresh = make_optimizer()
    fresh.load_state_dict(optimizer.state_dict())
    assert pickle.dumps(fresh) == pickle.dumps(optimizer)
    # The cold copies step exactly as the warm originals do.
    twin = SGDTrainer(
        pickle.loads(pickle.dumps(model)),
        pickle.loads(pickle.dumps(optimizer)),
    )
    features = dense_block(ensure_rng(2), 3, model.num_features)
    assert trainer.step(features, np.ones(3)) == twin.step(
        features, np.ones(3)
    )
    assert pickle.dumps(twin.model) == pickle.dumps(model)
    assert pickle.dumps(twin.optimizer) == pickle.dumps(optimizer)


def test_a_model_pickled_before_the_packed_vector_loads():
    """``weights`` and ``intercept`` as two entries is the layout of
    every pickle written so far; it comes back as one packed vector."""
    weights = np.array([0.5, -0.0, 2.0])
    state = dict(
        zip(
            PICKLED_MODEL_KEYS,
            [3, HingeLoss(), L2(1e-3), True, weights, -1.5, 7],
        )
    )
    model = LinearSVM.__new__(LinearSVM)
    model.__setstate__(state)
    assert model.weights.tobytes() == weights.tobytes()
    assert (model.intercept, model.updates_applied) == (-1.5, 7)
    assert np.shares_memory(model.weights, model.params)
    assert not np.shares_memory(model.weights, weights)
    assert model.params_vector().tolist() == [0.5, -0.0, 2.0, -1.5]
    SGDTrainer(model, Adam(0.05)).step(np.eye(3), np.ones(3))
    assert model.updates_applied == 8
    assert weights.tolist() == [0.5, -0.0, 2.0]


def test_convergence_compares_a_copy_taken_before_the_step():
    """``before`` as a live view would make every change zero and the
    first iteration 'converge'."""
    rng = ensure_rng(0)
    features = rng.standard_normal((20, 3))
    targets = features @ np.array([1.0, -2.0, 0.5])
    trainer = SGDTrainer(LinearRegression(3), ConstantLR(0.05))
    with pytest.warns(Warning, match="without converging"):
        result = trainer.train(
            features, targets, max_iterations=4, tolerance=1e-12, seed=0
        )
    assert (result.iterations, result.converged) == (4, False)

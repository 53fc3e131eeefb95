"""Generated property: the row-range kernels of ``LinearSGDModel`` are
bit-identical to slicing with scipy/numpy and calling ``X.dot`` /
``X.T.dot`` (sparse) or ``X.T @ d`` (dense).

The reference below is the pre-range implementation kept test-local:
it materializes ``features[start:stop]`` and runs scipy's
``csr_matvec`` / ``csc_matvec``. The range kernel accumulates with
``np.bincount`` in stored-entry order, which is the same order, so the
comparison is ``tobytes()`` for ``tobytes()`` — no tolerance.

Blocks are drawn from ``repro.utils.rng`` seeds; a failure names the
seed, the configuration and the range, and
``pytest tests/property/test_property_row_range.py -k "seed<N>"``
replays it.
"""

import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import ValidationError
from repro.execution.cost import CostTracker
from repro.ml.batch import Block
from repro.ml.models import LinearRegression, LinearSVM, LogisticRegression
from repro.ml.optim import Adam
from repro.ml.regularizers import L1, L2
from repro.ml.sgd import SGDTrainer
from repro.utils.rng import ensure_rng

SEEDS = range(24)
WIDTHS = (1, 2, 7, 64, 1024)
MODELS = (LinearSVM, LogisticRegression, LinearRegression)
REGULARIZERS = (lambda: None, lambda: L2(1e-3), lambda: L1(1e-2))


def random_csr(rng, rows, width):
    """A hasher-shaped CSR block: per row, unique sorted indices
    (collisions already aggregated), with empty rows, a run of empty
    rows beside a full one, and explicitly stored zeros."""
    counts = rng.integers(0, min(width, 12) + 1, size=rows)
    counts[rng.random(rows) < 0.25] = 0
    if rows >= 4:
        hole = int(rng.integers(0, rows - 3))
        counts[hole:hole + 3] = 0  # an all-empty range at k=3 ...
        counts[hole + 3] = min(width, 5)  # ... and its neighbour
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
    indices = np.concatenate(
        [
            np.sort(rng.choice(width, size=count, replace=False))
            for count in counts
        ]
        + [np.empty(0, dtype=np.int64)]
    ).astype(np.int32)
    data = rng.standard_normal(len(indices)) * 10.0 ** rng.integers(
        -3, 4, size=len(indices)
    )
    data[rng.random(len(data)) < 0.15] = 0.0  # stored, not pruned
    return sp.csr_matrix((data, indices, indptr), shape=(rows, width))


def random_dense(rng, rows, width):
    dense = rng.standard_normal((rows, width))
    dense[rng.random((rows, width)) < 0.2] = 0.0
    return dense


def reference(model, features, targets, start, stop):
    """``(decision, grad, objective)`` the way the model computed them
    before the range kernels: slice, then scipy / BLAS."""
    block = features[start:stop]
    targets = np.asarray(targets[start:stop], dtype=np.float64)
    if sp.issparse(block):
        scores = np.asarray(block.dot(model.weights)).ravel()
    else:
        scores = np.add.reduce(block * model.weights, axis=1)
    decision = scores + model.intercept
    dloss = model.loss.dvalue(decision, targets)
    if sp.issparse(block):
        grad_w = np.asarray(block.T.dot(dloss)).ravel() / len(targets)
    else:
        grad_w = (block.T @ dloss) / len(targets)
    grad_w = grad_w + model.regularizer.gradient(model.weights)
    objective = model.loss.value(decision, targets) + (
        model.regularizer.penalty(model.weights)
    )
    if model.fit_intercept:
        grad_w = np.concatenate([grad_w, [float(dloss.mean())]])
    return decision, grad_w, objective


def ranges(rows, batch_rows):
    return [
        (start, min(start + batch_rows, rows))
        for start in range(0, rows, batch_rows)
    ]


@pytest.mark.parametrize("make_block", [random_csr, random_dense])
@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
def test_range_kernels_match_sliced_reference(seed, make_block):
    rng = ensure_rng(seed)
    rows = int(rng.integers(1, 13))
    width = WIDTHS[seed % len(WIDTHS)]
    features = make_block(rng, rows, width)
    for model_type, make_regularizer, fit_intercept in itertools.product(
        MODELS, REGULARIZERS, (True, False)
    ):
        model = model_type(
            width,
            regularizer=make_regularizer(),
            fit_intercept=fit_intercept,
        )
        model.weights = rng.standard_normal(width)
        model.weights[rng.random(width) < 0.2] = 0.0
        model.intercept = float(rng.standard_normal()) * fit_intercept
        if model.task == "classification":
            targets = rng.choice([-1.0, 1.0], size=rows)
        else:
            targets = rng.standard_normal(rows)
        for batch_rows in (1, 3, rows, rows + 5):
            for start, stop in ranges(rows, batch_rows):
                where = (
                    f"seed={seed} {make_block.__name__} "
                    f"{model!r} intercept={fit_intercept} "
                    f"rows=[{start},{stop}) of {rows}x{width}"
                )
                decision, grad, objective = reference(
                    model, features, targets, start, stop
                )
                got_grad, got_objective = model.gradient(
                    features, targets, start, stop
                )
                assert got_grad.tobytes() == grad.tobytes(), where
                assert (
                    np.float64(got_objective).tobytes()
                    == np.float64(objective).tobytes()
                ), where
                assert (
                    model.decision_function(features, start, stop).tobytes()
                    == decision.tobytes()
                ), where
        # The whole block is the default range.
        decision, grad, __ = reference(model, features, targets, 0, rows)
        assert model.gradient(features, targets)[0].tobytes() == (
            grad.tobytes()
        )
        assert model.decision_function(features).tobytes() == (
            decision.tobytes()
        )


@pytest.mark.parametrize("make_block", [random_csr, random_dense])
@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
def test_stepping_over_ranges_equals_stepping_over_slices(seed, make_block):
    """Whole steps, not just gradients: a trainer walked over the
    ranges of a chunk ends with the model, optimizer state and cost
    charges of one walked over the chunk's slices."""
    rng = ensure_rng(seed)
    rows = int(rng.integers(1, 13))
    width = WIDTHS[seed % len(WIDTHS)]
    features = make_block(rng, rows, width)
    targets = rng.choice([-1.0, 1.0], size=rows)
    for batch_rows in (1, 3, rows, rows + 5):
        ranged = SGDTrainer(LinearSVM(width, L2(1e-3)), Adam(0.05))
        sliced = SGDTrainer(LinearSVM(width, L2(1e-3)), Adam(0.05))
        ranged_cost, sliced_cost = CostTracker(), CostTracker()
        opened = Block(features, targets)  # once, as online_step does
        for start, stop in ranges(rows, batch_rows):
            where = f"seed={seed} k={batch_rows} rows=[{start},{stop})"
            block = features[start:stop]
            assert opened.num_values(start, stop) == (
                block.nnz if sp.issparse(block) else block.size
            ), where
            a = ranged.step(opened, None, ranged_cost, start, stop)
            b = sliced.step(block, targets[start:stop], sliced_cost)
            assert a == b, where
        assert ranged_cost.total() == sliced_cost.total()
        assert (
            ranged.model.params_vector().tobytes()
            == sliced.model.params_vector().tobytes()
        ), f"seed={seed} k={batch_rows}"
        for key, value in ranged.optimizer.state_dict()["state"].items():
            other = sliced.optimizer.state_dict()["state"][key]
            assert np.asarray(value).tobytes() == np.asarray(other).tobytes()


@pytest.mark.parametrize("make_block", [random_csr, random_dense])
def test_range_outside_block_rejected(make_block):
    features = make_block(ensure_rng(0), 6, 7)
    model = LinearRegression(7)
    for start, stop in ((-1, 3), (4, 3), (0, 7)):
        with pytest.raises(ValidationError):
            model.decision_function(features, start, stop)

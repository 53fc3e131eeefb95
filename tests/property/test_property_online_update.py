"""Generated property of the online update as one bound kernel.

``LocalExecutionEngine.online_update`` resolves once per chunk what is
fixed per chunk — the checks, the optimizer's sizing, the gradient
buffer, the loss, regularizer and intercept branches — and walks the
chunk's row ranges through ``LinearSGDModel.descend`` inside one
``engine.train_step`` span. The path it replaced is kept below as the
reference, moved here verbatim as it was: ``SGDTrainer.step`` →
``LinearSGDModel.gradient`` (and its ``_forward``) → ``Optimizer.step``,
one ``engine.train_step`` span per range, every check on every range.

The two end on the same bytes on every learner — 3 models × 7 update
rules × {none, L1, L2} × ``fit_intercept`` — over dense and CSR
blocks whose widths cross numpy's pairwise blocks: packed parameters,
optimizer ``state_dict``, ``updates_applied``, the cost tracker's
totals and per-label breakdown, and the returned objective
(``tobytes()`` / ``==``, never a tolerance; a NaN compares by its
bytes, so it must sit where the reference put it). The one span
reports what the reference's spans add up to: ``steps`` is their
count, ``values`` their sum, and it starts and ends on the virtual
clock where the first one started and the last one ended. A chunk
without rows takes no step and emits nothing.

The generator draws the signed-zero edges the one-row step must
restore (``x * d`` is ``-0.0`` where the one-term ``X.T @ d``, the
``bincount`` from ``+0.0`` and ``np.add.reduce`` give ``+0.0``):
parameters loaded as ``-0.0`` through ``set_params_vector`` (under
every regularizer, L2 among them), all-zero rows, stored ``±0.0``,
regression targets equal to the decision (a zero residual), negative
features beside it, rows labelled as the model predicts them whose
logistic derivative underflows to ``-0.0``, and hinge margins of
exactly ``y·z == 1.0`` (weights ``-0.0``, intercept ``1.0``, every
label ``+1``). Besides the canonical CSR the hasher emits, a
non-canonical family stores a column twice in a row, out of order:
its one-row ranges take the range path and must still match.

Each chunk is walked twice on the same engine, so the second update
starts from a moved clock and a warm optimizer. A failure names the
seed, the configuration and the ``pytest … -k "seed<N>"`` line that
replays it.
"""

import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import ValidationError
from repro.execution.engine import LocalExecutionEngine
from repro.ml.batch import Block, open_block
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
from repro.obs import Telemetry, names
from repro.pipeline.component import Features
from repro.utils.rng import ensure_rng
from tests.property.test_property_row_range import (
    random_csr,
    random_dense,
    ranges,
)
from tests.property.test_property_sgd_step import as_bytes, signed_zeros

SEEDS = range(16)
#: Across numpy's pairwise-summation block of 8 and its unrolled 128.
WIDTHS = (1, 7, 8, 9, 64, 129)
CHUNK_ROWS = (0, 1, 7, 13)
BATCH_ROWS = (1, 3, None)
MODELS = (LinearSVM, LogisticRegression, LinearRegression)
REGULARIZERS = (lambda: None, lambda: L1(1e-2), lambda: L2(1e-3))
OPTIMIZERS = (
    lambda: ConstantLR(0.05),
    lambda: InverseScalingLR(0.05),
    lambda: Momentum(0.05),
    lambda: AdaGrad(0.05),
    lambda: RMSProp(0.05),
    lambda: AdaDelta(),
    lambda: Adam(0.05),
)
LEARNERS = tuple(
    itertools.product(MODELS, REGULARIZERS, OPTIMIZERS, (True, False))
)


# ----------------------------------------------------------------------
# The reference: the per-step path as it was
# ----------------------------------------------------------------------
def reference_forward(model, block, start, stop):
    """``LinearSGDModel._forward``: decision values of rows ``[start,
    stop)`` and what the column sums read: the dense view, the whole
    sparse matrix, or a CSR range's stored entries as ``(owner,
    indices, data)``."""
    weights = model.weights
    if block.indices is None:
        rows = block.matrix[start:stop]
        scores = np.add.reduce(rows * weights, axis=1)
    elif stop - start == block.rows:
        rows = block.matrix
        scores = rows @ weights
    else:
        entries = slice(block.bounds[start], block.bounds[stop])
        owner = block.owner[entries] - start
        indices, data = block.indices[entries], block.data[entries]
        rows = owner, indices, data
        scores = np.bincount(
            owner, weights=data * weights[indices], minlength=stop - start
        )
    return scores + model._packed[-1], rows


def reference_gradient(
    model, features, targets=None, start=0, stop=None, objective=True
):
    """``LinearSGDModel.gradient``: ``(grad, objective)`` of rows
    ``[start, stop)``, every check on every call."""
    block = open_block(features, targets)
    stop = model._check(block, start, stop)
    if block.targets is None:
        raise ValidationError("cannot train on a block without targets")
    targets = block.targets[start:stop]
    count = stop - start
    weights = model.weights
    decision, rows = reference_forward(model, block, start, stop)
    dloss = model.loss.dvalue(decision, targets)
    if isinstance(rows, tuple):
        owner, indices, data = rows
        sums = np.bincount(
            indices,
            weights=data * dloss[owner],
            minlength=model.num_features,
        )
    else:
        sums = rows.T @ dloss
    grad = np.empty(model.num_params)
    grad_w = np.divide(sums, count, out=grad[:model.num_features])
    grad_w += model.regularizer.gradient(weights)
    if model.fit_intercept:
        grad[-1] = np.add.reduce(dloss) / count
    if not objective:
        return grad, None
    return grad, model.loss.value(decision, targets) + (
        model.regularizer.penalty(weights)
    )


def reference_optimizer_step(optimizer, params, grad, out=None):
    """``Optimizer.step``: check, size and update, once per step."""
    params = np.asarray(params, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    if params.ndim != 1 or grad.shape != params.shape:
        raise ValidationError(
            f"params shape {params.shape} and grad shape "
            f"{grad.shape} must be equal 1-D shapes"
        )
    if optimizer._dim is None:
        optimizer._dim = params.size
        optimizer._state = {
            key: np.zeros(optimizer._dim) for key in optimizer.arrays
        }
    elif params.size != optimizer._dim:
        raise ValidationError(
            f"optimizer was sized for {optimizer._dim} parameters, "
            f"got {params.size}"
        )
    if optimizer._scratch is None:
        optimizer._scratch = np.empty(optimizer._dim), np.empty(
            optimizer._dim
        )
    return np.add(
        params, optimizer.bind(grad, *optimizer._scratch)(), out=out
    )


def reference_step(
    trainer, features, targets=None, tracker=None, start=0, stop=None,
    objective=True,
):
    """``SGDTrainer.step``: one gradient, one optimizer step, one
    charge."""
    block = open_block(features, targets)
    model = trainer.model
    grad, value = reference_gradient(
        model, block, None, start, stop, objective
    )
    params = model.params
    reference_optimizer_step(trainer.optimizer, params, grad, out=params)
    model.updates_applied += 1
    if tracker is not None:
        tracker.charge_training(block.num_values(start, stop), "sgd_step")
    return value


def reference_update(engine, trainer, features, batch_rows):
    """``online_step`` as it was: one ``engine.train_step`` span and
    one :func:`reference_step` per range, only the last one asked for
    its objective."""
    rows = features.num_rows
    block = Block(features.matrix, features.labels)
    objective = 0.0
    for start, stop in ranges(rows, batch_rows or max(rows, 1)):
        with engine.telemetry.tracer.span(
            names.ENGINE_TRAIN_STEP,
            values=block.num_values(start, stop),
            steps=1,
        ):
            objective = reference_step(
                trainer, block, None, engine.tracker, start, stop,
                stop == rows,
            )
    return objective


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
def dense_chunk(rng, rows, width):
    """Signed zeros, negative features, and all-zero rows (``-0.0``
    among them)."""
    dense = signed_zeros(rng, random_dense(rng, rows, width))
    dense[rng.random(rows) < 0.2] = 0.0
    dense[rng.random(rows) < 0.1] = -0.0
    return dense


def saturated_chunk(rng, rows, width):
    """Dense rows so large that, labelled as the model predicts them,
    the logistic derivative underflows to a signed zero (``-y * 0.0``)
    on every row — so an intercept loaded as ``-0.0`` stays a signed
    zero through the chunk."""
    dense = rng.standard_normal((rows, width)) * 1e4
    dense[dense == 0.0] = 1.0
    return dense


def csr_chunk(rng, rows, width):
    """``random_csr``: empty rows, stored zeros; plus stored ``-0.0``."""
    features = random_csr(rng, rows, width)
    signed_zeros(rng, features.data)
    return features


def repeated_chunk(rng, rows, width):
    """``csr_chunk`` with, in some rows, a column stored twice and the
    row's entries reversed: not canonical, so one-row ranges take the
    range path (``bincount`` sums a repeated column)."""
    features = csr_chunk(rng, rows, width)
    data, indices, bounds = [], [], [0]
    for row in range(rows):
        entries = slice(features.indptr[row], features.indptr[row + 1])
        columns, values = features.indices[entries], features.data[entries]
        if columns.size and rng.random() < 0.5:
            columns = np.append(columns, columns[0])[::-1]
            values = np.append(values, rng.standard_normal())[::-1]
        indices.append(columns)
        data.append(values)
        bounds.append(bounds[-1] + columns.size)
    return sp.csr_matrix(
        (
            np.concatenate([[]] + data),
            np.concatenate([np.empty(0, np.int32)] + indices),
            bounds,
        ),
        shape=(rows, width),
    )


def mode_of(seed):
    """Modes 0–2 cycle over seeds 0–11, crossing each with every chunk
    size; seeds 12–15 are mode 3's, one per chunk size."""
    return seed % 3 if seed < 12 else 3


def load_start(rng, model, mode):
    """Starting parameters through ``set_params_vector``: all ``-0.0``
    (mode 0), normals with a ``-0.0`` intercept (mode 1), normals with
    both zeros sprinkled among them (mode 2), or weights ``-0.0`` and
    intercept ``1.0`` (mode 3: with ``+1`` labels, hinge margins of
    exactly 1)."""
    packed = signed_zeros(rng, rng.standard_normal(model.num_params))
    if mode == 0:
        packed[:] = -0.0
    elif mode == 1:
        packed[-1] = -0.0
    elif mode == 3:
        packed[:] = -0.0
        packed[-1] = 1.0
    model.set_params_vector(packed)


def draw_targets(rng, model, matrix, mode):
    """Regression targets: in mode 0 the decision itself, so every
    residual is a signed zero. Labels: in mode 1 the model's own
    predictions (every margin positive), in mode 3 all ``+1``, else ±1
    at random."""
    rows = matrix.shape[0]
    if model.task == "classification":
        if mode == 1 and rows:
            return model.predict(matrix)
        if mode == 3:
            return np.ones(rows)
        return rng.choice([-1.0, 1.0], size=rows)
    if mode == 0 and rows:
        return model.decision_function(matrix)
    return rng.standard_normal(rows)


def train_spans(telemetry):
    return [
        event
        for event in telemetry.events
        if event["name"] == names.ENGINE_TRAIN_STEP
    ]


def learner(seed, model_type, make_regularizer, make_optimizer, fit, width):
    model = model_type(
        width, regularizer=make_regularizer(), fit_intercept=fit
    )
    load_start(ensure_rng(seed), model, mode=mode_of(seed))
    telemetry = Telemetry(ring_capacity=1 << 12)
    engine = LocalExecutionEngine(telemetry=telemetry)
    return engine, SGDTrainer(model, make_optimizer()), telemetry


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow: NaN
@pytest.mark.parametrize(
    "make_block", [csr_chunk, repeated_chunk, dense_chunk, saturated_chunk]
)
@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
def test_one_operation_matches_a_train_step_per_range(seed, make_block):
    rng = ensure_rng(seed)
    width = WIDTHS[seed % len(WIDTHS)]
    rows = CHUNK_ROWS[seed % len(CHUNK_ROWS)]
    matrix = make_block(rng, rows, width)
    replay = (
        "replay: pytest tests/property/test_property_online_update.py "
        f'-k "seed{seed} and {make_block.__name__}"'
    )
    for batch_rows, configuration in itertools.product(
        BATCH_ROWS, LEARNERS
    ):
        got_engine, got_trainer, got_events = learner(
            seed, *configuration, width
        )
        want_engine, want_trainer, want_events = learner(
            seed, *configuration, width
        )
        labels = draw_targets(rng, got_trainer.model, matrix, mode_of(seed))
        features = Features(matrix, labels)
        where = (
            f"seed={seed} {make_block.__name__} rows={rows} width={width} "
            f"batch_rows={batch_rows} {got_trainer.model!r} "
            f"intercept={got_trainer.model.fit_intercept} "
            f"{got_trainer.optimizer!r}\n{replay}"
        )
        for walk in (1, 2):
            started_at = got_engine.total_cost()
            seen = len(train_spans(want_events))
            got = got_engine.online_update(got_trainer, features, batch_rows)
            want = reference_update(
                want_engine, want_trainer, features, batch_rows
            )
            assert np.float64(got).tobytes() == (
                np.float64(want).tobytes()
            ), f"{where} walk={walk}"
            steps = train_spans(want_events)[seen:]
            spans = train_spans(got_events)
            if not rows:
                assert got == 0.0 and not spans and not steps, where
                continue
            assert len(spans) == walk, where
            span = spans[-1]
            assert span["attrs"] == {
                "values": sum(e["attrs"]["values"] for e in steps),
                "steps": len(steps),
            }, f"{where} walk={walk}"
            # Where the first step started, where the last one ended.
            assert span["t"] == started_at == steps[0]["t"], where
            assert span["dur"] == got_engine.total_cost() - started_at, where
        got_model, want_model = got_trainer.model, want_trainer.model
        assert got_model.params.tobytes() == want_model.params.tobytes(), where
        assert got_model.updates_applied == want_model.updates_applied, where
        assert as_bytes(got_trainer.optimizer.state_dict()) == as_bytes(
            want_trainer.optimizer.state_dict()
        ), where
        # Totals and the per-label breakdown, to the bit.
        assert got_engine.tracker.state_dict() == (
            want_engine.tracker.state_dict()
        ), where

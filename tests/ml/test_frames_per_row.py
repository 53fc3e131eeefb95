"""A trained row pays for its arithmetic, not its dispatch.

The online update binds once per chunk what is fixed per chunk, so a
row of a ``batch_rows=1`` update enters only the frames of its update
rule (and, for a CSR range, of the loss). This guard counts Python
frames — ``sys.setprofile`` ``call`` events — rather than timing
anything: a count does not drift with the machine. It averages over a
50-row chunk, on the two learners the experiments deploy.
"""

import sys

import numpy as np
import pytest
import scipy.sparse as sp

from repro.execution.engine import LocalExecutionEngine
from repro.ml.models import LinearRegression, LinearSVM
from repro.ml.optim import Adam, RMSProp
from repro.ml.regularizers import L2
from repro.ml.sgd import SGDTrainer
from repro.pipeline.component import Features
from repro.utils.rng import ensure_rng

ROWS = 50


def taxi_chunk(rng):
    """Dense, 11 assembled columns, LinearRegression + RMSProp + L2."""
    matrix, labels = rng.standard_normal((ROWS, 11)), rng.standard_normal(ROWS)
    model = LinearRegression(11, regularizer=L2(1e-4))
    return Features(matrix, labels), SGDTrainer(model, RMSProp(0.05))


def url_chunk(rng):
    """CSR over 1,024 hashed columns, LinearSVM + Adam + L2."""
    matrix = sp.random(ROWS, 1024, density=0.02, format="csr", random_state=7)
    labels = rng.choice([-1.0, 1.0], size=ROWS)
    trainer = SGDTrainer(LinearSVM(1024, regularizer=L2(1e-3)), Adam(0.05))
    return Features(matrix, labels), trainer


def frames_per_row(make_chunk):
    features, trainer = make_chunk(ensure_rng(0))
    engine = LocalExecutionEngine()
    engine.online_update(trainer, features, 1)  # warm: sized, cached
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        engine.online_update(trainer, features, 1)
    finally:
        sys.setprofile(None)
    assert trainer.model.updates_applied == 2 * ROWS
    return calls / ROWS


@pytest.mark.parametrize(
    "make_chunk, most", [(taxi_chunk, 3.0), (url_chunk, 6.0)]
)
def test_frames_entered_per_trained_row(make_chunk, most):
    measured = frames_per_row(make_chunk)
    assert measured <= most, (
        f"{make_chunk.__name__}: {measured:.2f} Python frames per trained "
        f"row, at most {most} expected"
    )

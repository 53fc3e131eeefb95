"""Generated property of the online update as one engine operation.

``LocalExecutionEngine.online_update`` walks a chunk's row ranges
inside one ``engine.train_step`` span. The path it replaced — the
manager looping over the ranges and calling ``engine.train_step`` once
per range, a span each — is kept below as the reference, and the two
end on the same bytes: packed parameters, optimizer ``state_dict``,
``updates_applied``, the cost tracker's totals and per-label
breakdown, and the returned objective (``tobytes()`` / ``==``, never
a tolerance). The one span reports what the reference's spans add up
to: ``steps`` is their count, ``values`` their sum, and it starts and
ends on the virtual clock where the first one started and the last
one ended. A chunk without rows takes no step and emits nothing.

Each chunk is walked twice on the same engine, so the second update
starts from a moved clock and a warm optimizer. A failure names the
seed and the configuration;
``pytest tests/property/test_property_online_update.py -k "seed<N>"``
replays it.
"""

import itertools

import numpy as np
import pytest

from repro.execution.engine import LocalExecutionEngine
from repro.ml.batch import Block
from repro.ml.models import LinearRegression, LinearSVM
from repro.ml.optim import Adam, RMSProp
from repro.ml.regularizers import L2
from repro.ml.sgd import SGDTrainer
from repro.obs import Telemetry, names
from repro.pipeline.component import Features
from repro.utils.rng import ensure_rng
from tests.property.test_property_row_range import (
    random_csr,
    random_dense,
    ranges,
)
from tests.property.test_property_sgd_step import as_bytes, start_from

SEEDS = range(6)
WIDTHS = (1, 7, 64)
CHUNK_ROWS = (0, 1, 7, 50)
BATCH_ROWS = (1, 3, 50, None, 64)
#: The two (model, optimizer) pairs the experiments deploy.
LEARNERS = (
    (lambda width: LinearSVM(width, regularizer=L2(1e-3)), lambda: Adam(0.05)),
    (lambda width: LinearRegression(width), lambda: RMSProp(0.05)),
)


def reference_update(engine, trainer, features, batch_rows):
    """``online_step`` as it was: one ``engine.train_step`` per range,
    only the last one asked for its objective."""
    rows = features.num_rows
    block = Block(features.matrix, features.labels)
    objective = 0.0
    for start, stop in ranges(rows, batch_rows or max(rows, 1)):
        objective = engine.train_step(
            trainer, block, None, start, stop, stop == rows
        )
    return objective


def train_spans(telemetry):
    return [
        event
        for event in telemetry.events
        if event["name"] == names.ENGINE_TRAIN_STEP
    ]


def learner(seed, make_model, make_optimizer, width):
    model = make_model(width)
    start_from(ensure_rng(seed), model)
    telemetry = Telemetry(ring_capacity=1 << 12)
    engine = LocalExecutionEngine(telemetry=telemetry)
    return engine, SGDTrainer(model, make_optimizer()), telemetry


@pytest.mark.parametrize("make_block", [random_csr, random_dense])
@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
def test_one_operation_matches_a_train_step_per_range(seed, make_block):
    rng = ensure_rng(seed)
    width = WIDTHS[seed % len(WIDTHS)]
    for rows, batch_rows, (make_model, make_optimizer) in itertools.product(
        CHUNK_ROWS, BATCH_ROWS, LEARNERS
    ):
        matrix = make_block(rng, rows, width)
        got_engine, got_trainer, got_events = learner(
            seed, make_model, make_optimizer, width
        )
        want_engine, want_trainer, want_events = learner(
            seed, make_model, make_optimizer, width
        )
        if got_trainer.model.task == "classification":
            labels = rng.choice([-1.0, 1.0], size=rows)
        else:
            labels = rng.standard_normal(rows)
        features = Features(matrix, labels)
        where = (
            f"seed={seed} {make_block.__name__} rows={rows} width={width} "
            f"batch_rows={batch_rows} {got_trainer.model!r} "
            f"{got_trainer.optimizer!r}"
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

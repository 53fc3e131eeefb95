"""Unit tests for the local execution engine."""

import numpy as np
import pytest

from repro.data.table import Table
from repro.execution.cost import CostModel
from repro.execution.engine import LocalExecutionEngine
from repro.ml.models import LinearRegression
from repro.ml.optim import Adam
from repro.ml.sgd import SGDTrainer
from repro.obs import Telemetry
from repro.pipeline.component import Features
from repro.pipeline.components.assembler import FeatureAssembler
from repro.pipeline.components.scaler import StandardScaler
from repro.pipeline.pipeline import Pipeline


@pytest.fixture
def engine():
    return LocalExecutionEngine(CostModel(transform_cost_per_value=1.0))


def make_pipeline():
    return Pipeline(
        [
            StandardScaler(["x"], name="scaler"),
            FeatureAssembler(["x"], "y", name="assembler"),
        ]
    )


def make_table():
    return Table({"x": [1.0, 2.0, 3.0], "y": [1.0, 2.0, 3.0]})


@pytest.fixture
def pipeline():
    return make_pipeline()


@pytest.fixture
def table():
    return make_table()


class TestPipelineExecution:
    def test_online_pass_returns_features(self, engine, pipeline, table):
        features = engine.online_pass(pipeline, table)
        assert features.num_rows == 3
        assert engine.tracker.category("statistics") > 0

    def test_transform_only_no_statistics(self, engine, pipeline, table):
        engine.transform_only(pipeline, table)
        assert engine.tracker.category("statistics") == 0.0
        assert engine.tracker.category("preprocessing") > 0


class TestTrainingExecution:
    def test_train_step(self, engine, rng):
        model = LinearRegression(num_features=2)
        trainer = SGDTrainer(model, Adam(0.05))
        x = rng.standard_normal((10, 2))
        y = rng.standard_normal(10)
        engine.train_step(trainer, x, y)
        assert model.updates_applied == 1
        assert engine.tracker.category("training") > 0

    def test_train_full(self, engine, rng):
        model = LinearRegression(num_features=2)
        trainer = SGDTrainer(model, Adam(0.05))
        x = rng.standard_normal((50, 2))
        y = x @ np.array([1.0, 2.0])
        result = engine.train_full(
            trainer, x, y, max_iterations=2000, tolerance=1e-8, seed=0
        )
        assert result.converged


class TestPredictionAndIO:
    def test_predict_charges(self, engine, rng):
        model = LinearRegression(num_features=2)
        predictions = engine.predict(model, rng.standard_normal((5, 2)))
        assert predictions.shape == (5,)
        assert engine.tracker.category("prediction") > 0

    def test_read_chunk_charges_disk(self, engine):
        engine.read_chunk(values=100, label="retrain_read")
        assert engine.tracker.category("disk_io") > 0
        assert "retrain_read" in engine.tracker.breakdown().by_label

    def test_total_cost_aggregates(self, engine, pipeline, table):
        engine.online_pass(pipeline, table)
        engine.read_chunk(10, "x")
        assert engine.total_cost() == pytest.approx(
            engine.tracker.total()
        )


class TestAccountingConsistency:
    def test_reset_zeroes_both_clocks(self, engine, pipeline, table):
        engine.online_pass(pipeline, table)
        assert engine.total_cost() > 0
        engine.reset()
        assert engine.total_cost() == 0.0
        # The engine stays usable after a reset.
        engine.online_pass(pipeline, table)
        assert engine.total_cost() > 0


def _comparable(value):
    """Engine return values reduced to plain, ``==``-comparable data."""
    if isinstance(value, Table):
        return value.digest()
    if isinstance(value, (list, tuple)):  # Features is a NamedTuple
        return [_comparable(item) for item in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value  # a loss, or the TrainingResult dataclass


#: operation -> (how to call it, span name, span attrs). ``values`` is
#: what each operation scans: a 3x2 table, or a 10x2 / 4x2 matrix.
OPERATIONS = {
    "online_pass": (
        lambda e, w: e.online_pass(w.pipeline, w.table),
        "engine.online_pass",
        {"values": 6},
    ),
    "transform_only": (
        lambda e, w: e.transform_only(w.pipeline, w.table),
        "engine.transform_only",
        {"values": 6},
    ),
    "serve_transform": (
        lambda e, w: e.serve_transform(w.pipeline, w.table),
        "engine.serve_transform",
        {"values": 6},
    ),
    "train_step": (
        lambda e, w: e.train_step(w.trainer, w.x, w.y),
        "engine.train_step",
        {"values": 20, "steps": 1},
    ),
    "online_update": (
        lambda e, w: e.online_update(w.trainer, Features(w.x, w.y), 4),
        "engine.train_step",
        {"values": 20, "steps": 3},
    ),
    "train_full": (
        lambda e, w: e.train_full(
            w.trainer, w.x, w.y, max_iterations=3, seed=0
        ),
        "engine.train_full",
        {"values": 20, "iterations": 3, "converged": False},
    ),
    "predict": (
        lambda e, w: e.predict(w.model, w.x),
        "engine.predict",
        {"values": 20},
    ),
    "predict_batch": (
        lambda e, w: e.predict_batch(w.model, [w.x, w.x[:4]]),
        "engine.predict",
        {"values": 28, "blocks": 2},
    ),
}


class _Work:
    """Fresh, identically-seeded inputs for one engine call."""

    def __init__(self):
        rng = np.random.default_rng(3)
        self.pipeline = make_pipeline()
        self.table = make_table()
        self.model = LinearRegression(num_features=2)
        self.trainer = SGDTrainer(self.model, Adam(0.05))
        self.x = rng.standard_normal((10, 2))
        self.y = rng.standard_normal(10)


@pytest.mark.filterwarnings("ignore::repro.exceptions.ConvergenceWarning")
@pytest.mark.parametrize("operation", sorted(OPERATIONS))
def test_telemetry_does_not_change_an_operation(operation):
    """One code path per operation: telemetry on == telemetry off."""
    call, span_name, span_attrs = OPERATIONS[operation]
    plain = LocalExecutionEngine()
    telemetry = Telemetry()
    traced = LocalExecutionEngine(telemetry=telemetry)

    plain_result = call(plain, _Work())
    traced_result = call(traced, _Work())

    assert _comparable(traced_result) == _comparable(plain_result)
    assert traced.tracker.state_dict() == plain.tracker.state_dict()
    assert plain.tracker.total() > 0
    spans = [e for e in telemetry.events if e["kind"] == "span"]
    assert [(e["name"], e["attrs"]) for e in spans] == [
        (span_name, span_attrs)
    ]
    assert spans[0]["dur"] == traced.tracker.total()

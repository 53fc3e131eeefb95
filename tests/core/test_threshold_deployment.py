"""Tests for the Velox-style threshold baseline: full retraining
under a :class:`~repro.core.scheduler.DegradationTrigger`."""

import numpy as np
import pytest

from repro.core.config import PeriodicalConfig
from repro.core.deployment import FullRetrainingDeployment
from repro.core.scheduler import DegradationTrigger
from repro.data.table import Table
from repro.exceptions import ValidationError
from repro.ml.models import LinearRegression
from repro.ml.optim import Adam
from repro.pipeline.components.assembler import FeatureAssembler
from repro.pipeline.components.scaler import StandardScaler
from repro.pipeline.pipeline import Pipeline

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.exceptions.ConvergenceWarning"
)


def make_parts():
    pipeline = Pipeline(
        [
            StandardScaler(["x"], name="scaler"),
            FeatureAssembler(["x"], "y", name="assembler"),
        ]
    )
    return pipeline, LinearRegression(num_features=1), Adam(0.05)


def shifting_stream(num_chunks=30, rows=10, shift_at=15, seed=0):
    """y = 3x before the shift, y = -3x after — a hard drift."""
    rng = np.random.default_rng(seed)
    for index in range(num_chunks):
        x = rng.standard_normal(rows)
        slope = 3.0 if index < shift_at else -3.0
        yield Table({"x": x, "y": slope * x})


def stable_stream(num_chunks=30, rows=10, seed=0):
    rng = np.random.default_rng(seed)
    for __ in range(num_chunks):
        x = rng.standard_normal(rows)
        yield Table({"x": x, "y": 3.0 * x})


def initial_tables(seed=99):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(80)
    return [Table({"x": x, "y": 3.0 * x})]


def make_deployment(**kwargs):
    pipeline, model, optimizer = make_parts()
    defaults = dict(
        tolerance_ratio=0.5,
        window_chunks=4,
        cooldown_chunks=4,
        # Online Adam steps make the per-chunk MSE oscillate in the
        # 0.005-0.04 band; the concept shift pushes it to ~36. The
        # absolute floor separates the two regimes.
        min_absolute_delta=0.05,
    )
    defaults.update(kwargs)
    return FullRetrainingDeployment(
        pipeline,
        model,
        optimizer,
        trigger=DegradationTrigger(**defaults),
        config=PeriodicalConfig(max_epoch_iterations=100),
        metric="regression",
        seed=0,
    )


class TestTriggering:
    def test_retrains_after_concept_shift(self):
        deployment = make_deployment()
        deployment.initial_fit(
            initial_tables(), max_iterations=500, tolerance=1e-8
        )
        result = deployment.run(shifting_stream())
        assert result.counters["retrainings"] >= 1
        # The first retraining happens after the shift at chunk 15.
        assert deployment.trigger.retrain_chunks[0] >= 15

    def test_stable_stream_never_retrains(self):
        deployment = make_deployment()
        deployment.initial_fit(
            initial_tables(), max_iterations=500, tolerance=1e-8
        )
        result = deployment.run(stable_stream())
        assert result.counters["retrainings"] == 0

    def test_cooldown_limits_retrain_frequency(self):
        deployment = make_deployment(cooldown_chunks=100)
        deployment.initial_fit(
            initial_tables(), max_iterations=500, tolerance=1e-8
        )
        result = deployment.run(shifting_stream())
        assert result.counters["retrainings"] == 0

    def test_windowed_error_accessor(self):
        deployment = make_deployment()
        assert deployment.trigger.windowed_error() == 0.0


class TestReporting:
    def test_result_counters(self):
        deployment = make_deployment()
        deployment.initial_fit(
            initial_tables(), max_iterations=100, tolerance=1e-6
        )
        result = deployment.run(shifting_stream(num_chunks=20))
        assert result.counters["online_updates"] == 20
        assert result.chunks_processed == 20

    def test_history_available_for_retraining(self):
        deployment = make_deployment()
        deployment.initial_fit(
            initial_tables(), max_iterations=100, tolerance=1e-6
        )
        deployment.run(shifting_stream(num_chunks=10))
        # 1 initial table + 10 chunks stored as raw history.
        assert deployment.data_manager.storage.num_raw == 11


class TestValidation:
    def test_invalid_parameters(self):
        with pytest.raises(ValidationError):
            DegradationTrigger(tolerance_ratio=0.0)
        with pytest.raises(ValidationError):
            DegradationTrigger(window_chunks=0)
        with pytest.raises(ValidationError):
            DegradationTrigger(cooldown_chunks=-1)

"""Tests for per-training-event duration tracking (§5.5 staleness)."""

import numpy as np
import pytest

from repro.core.config import (
    ContinuousConfig,
    PeriodicalConfig,
    ScheduleConfig,
)
from repro.core.deployment import (
    ContinuousDeployment,
    OnlineDeployment,
    FullRetrainingDeployment,
)
from repro.core.deployment.base import DeploymentResult
from repro.data.table import Table
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


def stream(num_chunks=12, rows=10, seed=0):
    rng = np.random.default_rng(seed)
    for __ in range(num_chunks):
        x = rng.standard_normal(rows)
        yield Table({"x": x, "y": 3.0 * x})


def initial():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(50)
    return [Table({"x": x, "y": 3.0 * x})]


class TestTrainingDurations:
    def test_continuous_records_proactive_durations(self):
        pipeline, model, optimizer = make_parts()
        deployment = ContinuousDeployment(
            pipeline, model, optimizer,
            config=ContinuousConfig(
                sample_size_chunks=3,
                schedule=ScheduleConfig(interval_chunks=4),
            ),
            metric="regression", seed=0,
        )
        deployment.initial_fit(initial(), max_iterations=50)
        result = deployment.run(stream())
        assert len(result.training_durations) == 3  # 12 / 4
        assert all(d > 0 for d in result.training_durations)
        assert result.average_training_duration > 0
        assert (
            result.max_training_duration
            >= result.average_training_duration
        )

    def test_periodical_records_retrain_durations(self):
        pipeline, model, optimizer = make_parts()
        deployment = FullRetrainingDeployment(
            pipeline, model, optimizer,
            config=PeriodicalConfig(
                retrain_every_chunks=6, max_epoch_iterations=30
            ),
            metric="regression", seed=0,
        )
        deployment.initial_fit(initial(), max_iterations=50)
        result = deployment.run(stream())
        assert len(result.training_durations) == 2
        assert all(d > 0 for d in result.training_durations)

    def test_online_has_no_training_events(self):
        pipeline, model, optimizer = make_parts()
        deployment = OnlineDeployment(
            pipeline, model, optimizer, metric="regression"
        )
        deployment.initial_fit(initial(), max_iterations=50)
        result = deployment.run(stream())
        assert result.training_durations == []
        assert result.average_training_duration == 0.0
        assert result.max_training_duration == 0.0

    def test_retraining_dwarfs_proactive_training(self):
        """§5.5: the per-event staleness window is orders of magnitude
        smaller for proactive training."""
        pipeline, model, optimizer = make_parts()
        continuous = ContinuousDeployment(
            pipeline, model, optimizer,
            config=ContinuousConfig(
                sample_size_chunks=2,
                schedule=ScheduleConfig(interval_chunks=4),
            ),
            metric="regression", seed=0,
        )
        continuous.initial_fit(initial(), max_iterations=50)
        continuous_result = continuous.run(stream())

        pipeline, model, optimizer = make_parts()
        periodical = FullRetrainingDeployment(
            pipeline, model, optimizer,
            config=PeriodicalConfig(
                retrain_every_chunks=6, max_epoch_iterations=100
            ),
            metric="regression", seed=0,
        )
        periodical.initial_fit(initial(), max_iterations=50)
        periodical_result = periodical.run(stream())

        assert (
            periodical_result.average_training_duration
            > 5 * continuous_result.average_training_duration
        )

    def test_empty_result_defaults(self):
        result = DeploymentResult(approach="x")
        assert result.average_training_duration == 0.0
        assert result.max_training_duration == 0.0

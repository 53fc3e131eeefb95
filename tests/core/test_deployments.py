"""Integration tests for the three deployment approaches on a small
shared synthetic problem."""

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

NUM_CHUNKS = 12
ROWS = 10


def make_stream(seed=0):
    rng = np.random.default_rng(seed)
    for __ in range(NUM_CHUNKS):
        x = rng.standard_normal(ROWS)
        yield Table({"x": x, "y": 3.0 * x + 0.5})


def initial_tables(seed=99):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(60)
    return [Table({"x": x, "y": 3.0 * x + 0.5})]


def make_parts():
    pipeline = Pipeline(
        [
            StandardScaler(["x"], name="scaler"),
            FeatureAssembler(["x"], "y", name="assembler"),
        ]
    )
    return pipeline, LinearRegression(num_features=1), Adam(0.05)


def run(deployment):
    deployment.initial_fit(
        initial_tables(), max_iterations=300, tolerance=1e-7
    )
    return deployment.run(make_stream())


class TestOnlineDeployment:
    def test_runs_and_reports(self):
        pipeline, model, optimizer = make_parts()
        result = run(
            OnlineDeployment(
                pipeline, model, optimizer, metric="regression"
            )
        )
        assert result.approach == "online"
        assert result.chunks_processed == NUM_CHUNKS
        assert len(result.cost_history) == NUM_CHUNKS
        assert result.counters["online_updates"] == NUM_CHUNKS
        assert result.final_error < 1.0
        assert result.cost_breakdown.total == pytest.approx(
            result.total_cost
        )

    def test_cost_history_monotone(self):
        pipeline, model, optimizer = make_parts()
        result = run(
            OnlineDeployment(
                pipeline, model, optimizer, metric="regression"
            )
        )
        assert np.all(np.diff(result.cost_history) >= 0)

    def test_per_row_updates(self):
        pipeline, model, optimizer = make_parts()
        deployment = OnlineDeployment(
            pipeline, model, optimizer,
            metric="regression", online_batch_rows=1,
        )
        run(deployment)
        # Initial fit iterations + NUM_CHUNKS * ROWS online steps.
        assert model.updates_applied >= NUM_CHUNKS * ROWS


class TestPeriodicalDeployment:
    def test_retrains_on_schedule(self):
        pipeline, model, optimizer = make_parts()
        deployment = FullRetrainingDeployment(
            pipeline,
            model,
            optimizer,
            config=PeriodicalConfig(
                retrain_every_chunks=4, max_epoch_iterations=10
            ),
            metric="regression",
            seed=0,
        )
        result = run(deployment)
        assert result.counters["retrainings"] == NUM_CHUNKS // 4
        assert result.counters["retrain_iterations"] > 0

    def test_cost_jumps_at_retraining(self):
        pipeline, model, optimizer = make_parts()
        deployment = FullRetrainingDeployment(
            pipeline,
            model,
            optimizer,
            config=PeriodicalConfig(
                retrain_every_chunks=6, max_epoch_iterations=50
            ),
            metric="regression",
            seed=0,
        )
        result = run(deployment)
        deltas = np.diff([0.0] + result.cost_history)
        # The retraining chunk (index 5) must cost much more than an
        # ordinary chunk (index 4).
        assert deltas[5] > deltas[4] * 3

    def test_history_accumulates(self):
        pipeline, model, optimizer = make_parts()
        deployment = FullRetrainingDeployment(
            pipeline, model, optimizer, metric="regression", seed=0
        )
        run(deployment)
        # 1 initial table + NUM_CHUNKS deployment chunks.
        assert deployment.data_manager.storage.num_raw == 1 + NUM_CHUNKS


class TestContinuousDeployment:
    def _config(self, **overrides):
        defaults = dict(
            sample_size_chunks=3,
            schedule=ScheduleConfig(kind="static", interval_chunks=4),
        )
        defaults.update(overrides)
        return ContinuousConfig(**defaults)

    def test_proactive_training_counted(self):
        pipeline, model, optimizer = make_parts()
        deployment = ContinuousDeployment(
            pipeline, model, optimizer,
            config=self._config(), metric="regression", seed=0,
        )
        result = run(deployment)
        assert result.counters["proactive_trainings"] == NUM_CHUNKS // 4
        assert result.counters["chunks_sampled"] > 0

    def test_fully_materialized_run_rematerializes_nothing(self):
        pipeline, model, optimizer = make_parts()
        deployment = ContinuousDeployment(
            pipeline, model, optimizer,
            config=self._config(), metric="regression", seed=0,
        )
        result = run(deployment)
        assert result.counters["chunks_rematerialized"] == 0
        assert deployment.materialization_utilization() == 1.0

    def test_bounded_storage_rematerializes(self):
        pipeline, model, optimizer = make_parts()
        deployment = ContinuousDeployment(
            pipeline, model, optimizer,
            config=self._config(max_materialized_chunks=2),
            metric="regression",
            seed=0,
        )
        result = run(deployment)
        assert result.counters["chunks_rematerialized"] > 0
        assert 0.0 < deployment.materialization_utilization() < 1.0

    def test_costs_more_than_online_less_than_periodical(self):
        results = {}
        for name in ("online", "periodical", "continuous"):
            pipeline, model, optimizer = make_parts()
            if name == "online":
                deployment = OnlineDeployment(
                    pipeline, model, optimizer, metric="regression"
                )
            elif name == "periodical":
                deployment = FullRetrainingDeployment(
                    pipeline, model, optimizer,
                    config=PeriodicalConfig(
                        retrain_every_chunks=4,
                        max_epoch_iterations=100,
                    ),
                    metric="regression",
                    seed=0,
                )
            else:
                deployment = ContinuousDeployment(
                    pipeline, model, optimizer,
                    config=self._config(), metric="regression", seed=0,
                )
            results[name] = run(deployment)
        assert (
            results["online"].total_cost
            <= results["continuous"].total_cost
            < results["periodical"].total_cost
        )


class TestDeploymentResult:
    def test_empty_result_raises(self):
        from repro.core.deployment.base import DeploymentResult

        result = DeploymentResult(approach="x")
        with pytest.raises(ValidationError):
            result.final_error
        with pytest.raises(ValidationError):
            result.average_error
        with pytest.raises(ValidationError):
            result.total_cost

    def test_invalid_metric_rejected(self):
        pipeline, model, optimizer = make_parts()
        with pytest.raises(ValidationError):
            OnlineDeployment(
                pipeline, model, optimizer, metric="f1"
            )

"""Edge-case and determinism tests for the deployment approaches."""

import numpy as np
import pytest

from repro.core.config import ContinuousConfig, ScheduleConfig
from repro.core.deployment import (
    ContinuousDeployment,
    FullRetrainingDeployment,
    OnlineDeployment,
)
from repro.core.scheduler import DegradationTrigger
from repro.data.table import Table
from repro.exceptions import ValidationError
from repro.execution.cost import CostModel
from repro.ml.models import LinearRegression
from repro.ml.optim import Adam
from repro.pipeline.components.anomaly import RangeFilter
from repro.pipeline.components.assembler import FeatureAssembler
from repro.pipeline.components.scaler import StandardScaler
from repro.pipeline.pipeline import Pipeline

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.exceptions.ConvergenceWarning"
)


def make_parts(with_filter=False):
    components = []
    if with_filter:
        components.append(
            RangeFilter("x", minimum=-2.0, maximum=2.0, name="filter")
        )
    components.extend(
        [
            StandardScaler(["x"], name="scaler"),
            FeatureAssembler(["x"], "y", name="assembler"),
        ]
    )
    return (
        Pipeline(components),
        LinearRegression(num_features=1),
        Adam(0.05),
    )


def stream(num_chunks=10, rows=8, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    for __ in range(num_chunks):
        x = rng.standard_normal(rows) * scale
        yield Table({"x": x, "y": 2.0 * x})


def initial(seed=5):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(40)
    return [Table({"x": x, "y": 2.0 * x})]


class TestFilteredChunks:
    def test_fully_filtered_chunk_carries_error_forward(self):
        """A chunk whose every row is anomalous produces no
        prequential measurement but keeps histories aligned."""
        pipeline, model, optimizer = make_parts(with_filter=True)
        deployment = OnlineDeployment(
            pipeline, model, optimizer, metric="regression"
        )
        deployment.initial_fit(initial(), max_iterations=50)

        def mixed_stream():
            yield from stream(num_chunks=2, seed=1)
            # Every |x| > 2: the filter drops the whole chunk.
            yield Table({"x": [5.0, -6.0], "y": [10.0, -12.0]})
            yield from stream(num_chunks=2, seed=2)

        result = deployment.run(mixed_stream())
        assert result.chunks_processed == 5
        # The filtered chunk repeated the previous cumulative value.
        assert result.error_history[2] == result.error_history[1]

    def test_all_chunks_filtered_no_crash(self):
        pipeline, model, optimizer = make_parts(with_filter=True)
        deployment = OnlineDeployment(
            pipeline, model, optimizer, metric="regression"
        )
        deployment.initial_fit(initial(), max_iterations=20)
        result = deployment.run(stream(num_chunks=3, scale=100.0))
        assert result.chunks_processed == 3
        assert all(e == 0.0 for e in result.error_history)
        assert result.counters["online_updates"] == 0


class TestDeterminism:
    def _run(self):
        pipeline, model, optimizer = make_parts()
        deployment = ContinuousDeployment(
            pipeline, model, optimizer,
            config=ContinuousConfig(
                sample_size_chunks=3,
                schedule=ScheduleConfig(interval_chunks=3),
            ),
            metric="regression",
            seed=11,
        )
        deployment.initial_fit(initial(), max_iterations=40, seed=11)
        return deployment.run(stream(num_chunks=9, seed=3))

    def test_same_seed_identical_histories(self):
        first = self._run()
        second = self._run()
        assert first.error_history == second.error_history
        assert first.cost_history == second.cost_history
        assert first.counters == second.counters


class TestCostModelInjection:
    def test_custom_prices_scale_costs(self):
        def run(cost_model):
            pipeline, model, optimizer = make_parts()
            deployment = OnlineDeployment(
                pipeline, model, optimizer,
                metric="regression", cost_model=cost_model,
            )
            deployment.initial_fit(initial(), max_iterations=20)
            return deployment.run(stream()).total_cost

        cheap = run(CostModel())
        pricey = run(
            CostModel(transform_cost_per_value=1e-3)
        )
        assert pricey > cheap * 10


class TestProactiveOnlyLearning:
    def test_learns_without_online_updates(self):
        """With online updates off, proactive training alone must
        still drive the error down (the platform's other half)."""
        pipeline, model, optimizer = make_parts()
        deployment = ContinuousDeployment(
            pipeline, model, optimizer,
            config=ContinuousConfig(
                sample_size_chunks=5,
                schedule=ScheduleConfig(interval_chunks=1),
                online_update=False,
            ),
            metric="regression",
            seed=0,
        )
        # Deliberately weak initial fit: proactive must do the work.
        deployment.initial_fit(initial(), max_iterations=2,
                               tolerance=0.0)
        result = deployment.run(stream(num_chunks=40, seed=7))
        assert result.counters["proactive_trainings"] == 40
        assert result.error_history[-1] < result.error_history[3]


class TestDynamicScheduleInDeployment:
    def test_dynamic_scheduler_runs_trainings(self):
        pipeline, model, optimizer = make_parts()
        deployment = ContinuousDeployment(
            pipeline, model, optimizer,
            config=ContinuousConfig(
                sample_size_chunks=2,
                schedule=ScheduleConfig(
                    kind="dynamic", slack=1.5, initial_interval=1e-6
                ),
            ),
            metric="regression",
            seed=0,
        )
        deployment.initial_fit(initial(), max_iterations=20)
        result = deployment.run(stream(num_chunks=12))
        assert result.counters["proactive_trainings"] >= 1
        scheduler = deployment.platform.rules[0].trigger
        assert scheduler.prediction_rate() > 0
        assert scheduler.prediction_latency() > 0


class TestEmptyStream:
    def test_empty_stream_yields_empty_result(self):
        pipeline, model, optimizer = make_parts()
        deployment = OnlineDeployment(
            pipeline, model, optimizer, metric="regression"
        )
        deployment.initial_fit(initial(), max_iterations=20)
        result = deployment.run(iter([]))
        assert result.chunks_processed == 0
        assert result.error_history == []
        from repro.exceptions import ValidationError

        with pytest.raises(ValidationError):
            result.final_error


def _threshold(*parts, **kwargs):
    return FullRetrainingDeployment(
        *parts, trigger=DegradationTrigger(), **kwargs
    )


def _continuous(*parts, online_batch_rows):
    return ContinuousDeployment(
        *parts, config=ContinuousConfig(online_batch_rows=online_batch_rows)
    )


class TestOnlineBatchRowsValidation:
    """Every approach rejects a bad slice size when it is built —
    not with a bare ``range()`` error (0) or by silently training
    nothing (negative) once the stream is running."""

    BUILDERS = [
        OnlineDeployment,
        FullRetrainingDeployment,
        _threshold,
        _continuous,
    ]
    #: The names the approaches had as classes of their own.
    IDS = [
        "OnlineDeployment",
        "PeriodicalDeployment",
        "ThresholdRetrainingDeployment",
        "_continuous",
    ]

    @pytest.mark.parametrize("rows", [0, -1])
    @pytest.mark.parametrize("build", BUILDERS, ids=IDS)
    def test_rejected_at_construction(self, build, rows):
        with pytest.raises(ValidationError, match="online_batch_rows"):
            build(*make_parts(), online_batch_rows=rows)

    @pytest.mark.parametrize("rows", [None, 1, 3, 1000])
    @pytest.mark.parametrize("build", BUILDERS[:3], ids=IDS[:3])
    def test_valid_sizes_train_every_chunk(self, build, rows):
        deployment = build(
            *make_parts(), metric="regression", online_batch_rows=rows
        )
        deployment.initial_fit(initial(), max_iterations=20, seed=0)
        result = deployment.run(stream(num_chunks=4))
        assert result.counters["online_updates"] == 4

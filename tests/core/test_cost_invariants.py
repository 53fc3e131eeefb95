"""Cross-approach cost invariants.

The deterministic cost model makes deployment cost a pure function of
the work performed, so these invariants must hold exactly — they are
the foundations the Figure 4/7 claims rest on.
"""

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


def stream(num_chunks=12, rows=8, seed=0):
    rng = np.random.default_rng(seed)
    for __ in range(num_chunks):
        x = rng.standard_normal(rows)
        yield Table({"x": x, "y": 2.0 * x})


def initial():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(40)
    return [Table({"x": x, "y": 2.0 * x})]


def run(deployment, num_chunks=12):
    deployment.initial_fit(initial(), max_iterations=30)
    return deployment.run(stream(num_chunks=num_chunks))


ALL_BUILDERS = {
    "online": lambda p, m, o: OnlineDeployment(
        p, m, o, metric="regression"
    ),
    "periodical": lambda p, m, o: FullRetrainingDeployment(
        p, m, o,
        config=PeriodicalConfig(
            retrain_every_chunks=5, max_epoch_iterations=20
        ),
        metric="regression", seed=0,
    ),
    "continuous": lambda p, m, o: ContinuousDeployment(
        p, m, o,
        config=ContinuousConfig(
            sample_size_chunks=3,
            schedule=ScheduleConfig(interval_chunks=4),
        ),
        metric="regression", seed=0,
    ),
}


class TestCostInvariants:
    @pytest.mark.parametrize("name", list(ALL_BUILDERS))
    def test_cost_history_non_decreasing(self, name):
        deployment = ALL_BUILDERS[name](*make_parts())
        result = run(deployment)
        deltas = np.diff(result.cost_history)
        assert np.all(deltas >= 0)

    @pytest.mark.parametrize("name", list(ALL_BUILDERS))
    def test_cost_matches_breakdown(self, name):
        deployment = ALL_BUILDERS[name](*make_parts())
        result = run(deployment)
        assert result.cost_breakdown.total == pytest.approx(
            result.total_cost
        )

    @pytest.mark.parametrize("name", list(ALL_BUILDERS))
    def test_cost_grows_with_stream_length(self, name):
        short = run(ALL_BUILDERS[name](*make_parts()), num_chunks=6)
        long = run(ALL_BUILDERS[name](*make_parts()), num_chunks=12)
        assert long.total_cost > short.total_cost

    def test_proactive_training_adds_cost_over_online(self):
        """Continuous = online + proactive work; its cost must strictly
        exceed online's on identical streams."""
        online = run(ALL_BUILDERS["online"](*make_parts()))
        continuous = run(ALL_BUILDERS["continuous"](*make_parts()))
        assert continuous.total_cost > online.total_cost

    def test_materialization_never_raises_cost(self):
        """More materialization budget can only lower deployment cost
        (fewer re-materializations), never raise it."""
        costs = []
        for budget in (0, 2, None):
            pipeline, model, optimizer = make_parts()
            deployment = ContinuousDeployment(
                pipeline, model, optimizer,
                config=ContinuousConfig(
                    sample_size_chunks=4,
                    schedule=ScheduleConfig(interval_chunks=2),
                    max_materialized_chunks=budget,
                ),
                metric="regression", seed=0,
            )
            costs.append(run(deployment).total_cost)
        assert costs[0] >= costs[1] >= costs[2]

    def test_disk_io_zero_when_fully_materialized(self):
        deployment = ALL_BUILDERS["continuous"](*make_parts())
        result = run(deployment)
        assert result.cost_breakdown.by_category.get(
            "disk_io", 0.0
        ) == 0.0

    def test_disk_io_positive_when_unmaterialized(self):
        pipeline, model, optimizer = make_parts()
        deployment = ContinuousDeployment(
            pipeline, model, optimizer,
            config=ContinuousConfig(
                sample_size_chunks=4,
                schedule=ScheduleConfig(interval_chunks=2),
                max_materialized_chunks=0,
            ),
            metric="regression", seed=0,
        )
        result = run(deployment)
        assert result.cost_breakdown.by_category["disk_io"] > 0

"""End-to-end workflows a downstream user would actually run.

These are adoption-path tests: the README quickstart, swapping
optimizers mid-design, and driving a deployment from files on disk.
"""

import numpy as np
import pytest

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.exceptions.ConvergenceWarning"
)


class TestReadmeQuickstart:
    def test_quickstart_snippet_runs(self):
        """The exact shape of the README quickstart, miniaturised."""
        from repro import (
            Adam,
            ContinuousConfig,
            ContinuousDeployment,
            L2,
            LinearSVM,
            ScheduleConfig,
            URLStreamGenerator,
            make_url_pipeline,
        )

        generator = URLStreamGenerator(
            num_chunks=12, rows_per_chunk=20, seed=7
        )
        pipeline = make_url_pipeline(hash_features=128)
        model = LinearSVM(num_features=128, regularizer=L2(1e-3))
        deployment = ContinuousDeployment(
            pipeline,
            model,
            Adam(0.05),
            config=ContinuousConfig(
                sample_size_chunks=4,
                schedule=ScheduleConfig(
                    kind="static", interval_chunks=5
                ),
                sampler="time",
                half_life=6,
            ),
            metric="classification",
            seed=7,
        )
        deployment.initial_fit(
            generator.initial_data(100), max_iterations=60
        )
        result = deployment.run(generator.stream())
        assert 0.0 <= result.final_error <= 1.0
        assert result.total_cost > 0
        assert result.counters["proactive_trainings"] == 2


class TestOptimizerSwap:
    @pytest.mark.parametrize(
        "name", ["adam", "rmsprop", "adadelta", "momentum", "adagrad"]
    )
    def test_any_optimizer_drives_a_deployment(self, name):
        from repro import OnlineDeployment, Table
        from repro.ml.models import LinearRegression
        from repro.ml.optim import make_optimizer
        from repro.pipeline.components.assembler import FeatureAssembler
        from repro.pipeline.pipeline import Pipeline

        rng = np.random.default_rng(0)

        def make_stream():
            for __ in range(5):
                x = rng.standard_normal(10)
                yield Table({"x": x, "y": 2.0 * x})

        pipeline = Pipeline(
            [FeatureAssembler(["x"], "y", name="assembler")]
        )
        deployment = OnlineDeployment(
            pipeline,
            LinearRegression(num_features=1),
            make_optimizer(name),
            metric="regression",
        )
        x = rng.standard_normal(30)
        deployment.initial_fit(
            [Table({"x": x, "y": 2.0 * x})], max_iterations=20
        )
        result = deployment.run(make_stream())
        assert result.chunks_processed == 5
        assert np.isfinite(result.final_error)

"""Unit tests for the Pipeline chain."""

import numpy as np
import pytest

from repro.data.table import Table
from repro.exceptions import PipelineError
from repro.execution.cost import CostTracker
from repro.execution.engine import LocalExecutionEngine
from repro.pipeline.component import (
    Batch,
    Features,
    StatelessComponent,
)
from repro.pipeline.components.assembler import FeatureAssembler
from repro.pipeline.components.scaler import StandardScaler
from repro.pipeline.pipeline import Pipeline


class AddOne(StatelessComponent):
    def transform(self, batch: Batch) -> Batch:
        return batch.with_column("x", np.asarray(batch["x"]) + 1.0)


class CountingScaler(StandardScaler):
    """StandardScaler that counts update calls."""

    def __init__(self, columns, name=None):
        super().__init__(columns, name=name)
        self.updates = 0

    def update(self, batch):
        self.updates += 1
        super().update(batch)


def make_pipeline():
    return Pipeline(
        [
            AddOne(name="add_one"),
            CountingScaler(["x"], name="scaler"),
            FeatureAssembler(["x"], "y", name="assembler"),
        ]
    )


def sample_table():
    return Table({"x": [0.0, 2.0], "y": [1.0, -1.0]})


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(PipelineError, match="at least one"):
            Pipeline([])

    def test_non_component_rejected(self):
        with pytest.raises(PipelineError, match="not a PipelineComponent"):
            Pipeline([object()])

    def test_duplicate_names_rejected(self):
        with pytest.raises(PipelineError, match="duplicate"):
            Pipeline([AddOne(name="a"), AddOne(name="a")])

    def test_component_lookup(self):
        pipeline = make_pipeline()
        assert pipeline.component("scaler").name == "scaler"
        with pytest.raises(PipelineError, match="no component"):
            pipeline.component("nope")

    def test_introspection(self):
        pipeline = make_pipeline()
        assert len(pipeline) == 3
        assert pipeline.component_names == [
            "add_one", "scaler", "assembler",
        ]
        assert [c.name for c in pipeline.stateful_components] == [
            "scaler"
        ]

    def test_components_returns_copy(self):
        pipeline = make_pipeline()
        pipeline.components.clear()
        assert len(pipeline) == 3


class TestExecutionPaths:
    def test_update_transform_updates_statistics(self):
        pipeline = make_pipeline()
        pipeline.update_transform(sample_table())
        assert pipeline.component("scaler").updates == 1

    def test_transform_does_not_update_statistics(self):
        pipeline = make_pipeline()
        pipeline.transform(sample_table())
        assert pipeline.component("scaler").updates == 0

    def test_terminal_features(self):
        pipeline = make_pipeline()
        result = pipeline.update_transform(sample_table())
        assert isinstance(result, Features)
        assert result.num_rows == 2

    def test_transform_to_features_requires_terminal(self):
        """Checked where a model-ready batch is required: the engine's
        two pipeline passes."""
        pipeline = Pipeline([AddOne()])
        assert isinstance(pipeline.transform(sample_table()), Table)
        engine = LocalExecutionEngine()
        with pytest.raises(PipelineError, match="terminate"):
            engine.transform_only(pipeline, sample_table())
        with pytest.raises(PipelineError, match="terminate"):
            engine.online_pass(pipeline, sample_table())

    def test_train_serve_consistency(self):
        """The serving path must apply the same transformations the
        training path fitted — the §4.3 guarantee."""
        pipeline = make_pipeline()
        trained = pipeline.update_transform(sample_table())
        served = pipeline.transform(sample_table())
        assert np.allclose(trained.matrix, served.matrix)

    def test_reset_clears_all_statistics(self):
        pipeline = make_pipeline()
        pipeline.update_transform(sample_table())
        pipeline.reset()
        # After reset the scaler is an identity again.
        result = pipeline.transform(sample_table())
        assert np.allclose(result.matrix.ravel(), [1.0, 3.0])


class TestCostCharging:
    def test_online_pass_charges_statistics_and_transform(self):
        pipeline = make_pipeline()
        tracker = CostTracker()
        pipeline.update_transform(sample_table(), tracker)
        breakdown = tracker.breakdown()
        assert breakdown.by_category["preprocessing"] > 0
        assert breakdown.by_category["statistics"] > 0

    def test_transform_only_charges_no_statistics(self):
        pipeline = make_pipeline()
        tracker = CostTracker()
        pipeline.transform(sample_table(), tracker)
        assert tracker.category("statistics") == 0.0
        assert tracker.category("preprocessing") > 0

    def test_per_component_labels(self):
        pipeline = make_pipeline()
        tracker = CostTracker()
        pipeline.transform(sample_table(), tracker)
        labels = tracker.breakdown().by_label
        assert "add_one" in labels
        assert "scaler" in labels
        assert "assembler" in labels

    def test_stateless_components_skip_statistics_charge(self):
        pipeline = Pipeline(
            [AddOne(name="a"), FeatureAssembler(["x"], "y")]
        )
        tracker = CostTracker()
        pipeline.update_transform(sample_table(), tracker)
        assert tracker.category("statistics") == 0.0

"""Unit tests for the pipeline manager."""

import numpy as np
import pytest

from repro.core.pipeline_manager import PipelineManager
from repro.data.manager import DataManager
from repro.data.storage import ChunkStorage
from repro.data.table import Table
from repro.exceptions import PipelineError
from repro.execution.cost import CostModel
from repro.execution.engine import LocalExecutionEngine
from repro.ml.models import LinearRegression
from repro.ml.optim import Adam
from repro.pipeline.component import Features
from repro.pipeline.components.assembler import FeatureAssembler
from repro.pipeline.components.scaler import StandardScaler
from repro.pipeline.pipeline import Pipeline

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.exceptions.ConvergenceWarning"
)


def make_manager(max_materialized=None, seed=0):
    pipeline = Pipeline(
        [
            StandardScaler(["x"], name="scaler"),
            FeatureAssembler(["x"], "y", name="assembler"),
        ]
    )
    model = LinearRegression(num_features=1)
    engine = LocalExecutionEngine(
        CostModel(
            transform_cost_per_value=1.0,
            statistics_cost_per_value=1.0,
            disk_read_cost_per_value=1.0,
        )
    )
    data_manager = DataManager(
        storage=ChunkStorage(max_materialized=max_materialized),
        seed=seed,
    )
    return PipelineManager(
        pipeline=pipeline,
        model=model,
        optimizer=Adam(0.05),
        data_manager=data_manager,
        engine=engine,
    )


def table_for(rng, rows=8):
    x = rng.standard_normal(rows)
    return Table({"x": x, "y": 2.0 * x + 1.0})


class TestInitialFit:
    def test_trains_and_fits_statistics(self, rng):
        manager = make_manager()
        result = manager.initial_fit(
            [table_for(rng, 50)], max_iterations=2000, tolerance=1e-8
        )
        assert result.converged
        assert manager.model.weights[0] != 0.0

    def test_store_makes_history_available(self, rng):
        manager = make_manager()
        manager.initial_fit(
            [table_for(rng), table_for(rng)],
            max_iterations=5,
            tolerance=0.0,
            store=True,
        )
        assert manager.data_manager.num_chunks == 2

    def test_empty_rejected(self):
        with pytest.raises(PipelineError):
            make_manager().initial_fit([])


class TestTrainingChunks:
    def test_process_stores_raw_and_features(self, rng):
        manager = make_manager()
        raw, features = manager.process_training_chunk(table_for(rng))
        assert manager.data_manager.storage.has_raw(raw.timestamp)
        assert manager.data_manager.storage.is_materialized(
            raw.timestamp
        )
        assert features.num_rows == 8

    def test_online_statistics_toggle(self, rng):
        manager = make_manager()
        manager.process_training_chunk(
            table_for(rng), online_statistics=False
        )
        assert manager.engine.tracker.category("statistics") == 0.0

    def test_store_toggle(self, rng):
        manager = make_manager()
        raw, __ = manager.process_training_chunk(
            table_for(rng), store=False
        )
        assert not manager.data_manager.storage.has_features_entry(
            raw.timestamp
        )


class TestOnlineStep:
    def test_whole_chunk_is_one_update(self, rng):
        manager = make_manager()
        __, features = manager.process_training_chunk(table_for(rng))
        manager.online_step(features)
        assert manager.model.updates_applied == 1

    def test_per_row_mode(self, rng):
        manager = make_manager()
        __, features = manager.process_training_chunk(table_for(rng))
        manager.online_step(features, batch_rows=1)
        assert manager.model.updates_applied == features.num_rows

    def test_slices_of_three(self, rng):
        manager = make_manager()
        __, features = manager.process_training_chunk(
            table_for(rng, rows=8)
        )
        manager.online_step(features, batch_rows=3)
        assert manager.model.updates_applied == 3  # 3 + 3 + 2

    def test_invalid_batch_rows(self, rng):
        manager = make_manager()
        __, features = manager.process_training_chunk(table_for(rng))
        with pytest.raises(PipelineError):
            manager.online_step(features, batch_rows=0)

    def test_batch_rows_checked_before_the_chunk_is_looked_at(self):
        manager = make_manager()
        empty = Features(matrix=np.empty((0, 1)), labels=np.empty(0))
        with pytest.raises(PipelineError, match="batch_rows"):
            manager.online_step(empty, batch_rows=0)
        assert manager.online_step(empty, batch_rows=1) == 0.0
        assert manager.model.updates_applied == 0

    def test_last_range_is_clamped_to_the_chunk(self, rng):
        """8 rows by 3: the third step sees rows [6, 8), not [6, 9)."""
        manager = make_manager()
        __, features = manager.process_training_chunk(
            table_for(rng, rows=8)
        )
        seen = []
        step = manager.trainer.step

        def spy(block, labels, tracker, start, stop, objective):
            seen.append((start, stop, objective))
            return step(block, labels, tracker, start, stop, objective)

        manager.trainer.step = spy
        manager.online_step(features, batch_rows=3)
        # ... and only the last range's objective is evaluated.
        assert seen == [(0, 3, False), (3, 6, False), (6, 8, True)]
        tracker = manager.engine.tracker
        assert tracker.category("training") == pytest.approx(
            tracker.model.training_cost_per_value * 8
        )


class TestServing:
    def test_answer_queries(self, rng):
        manager = make_manager()
        manager.process_training_chunk(table_for(rng))
        predictions, labels = manager.answer_queries(table_for(rng))
        assert predictions.shape == labels.shape
        assert manager.engine.tracker.category("prediction") > 0

    def test_serving_does_not_touch_statistics(self, rng):
        manager = make_manager()
        manager.process_training_chunk(table_for(rng))
        stats_before = manager.engine.tracker.category("statistics")
        manager.answer_queries(table_for(rng))
        assert (
            manager.engine.tracker.category("statistics")
            == stats_before
        )


class TestSampleForTraining:
    def test_materialized_sample_free_of_disk_io(self, rng):
        manager = make_manager()
        for __ in range(5):
            manager.process_training_chunk(table_for(rng))
        samples = manager.sample_for_training(3)
        assert len(samples) == 3
        assert manager.engine.tracker.category("disk_io") == 0.0

    def test_rematerialization_charges_disk_and_transform(self, rng):
        manager = make_manager(max_materialized=0)
        for __ in range(4):
            manager.process_training_chunk(table_for(rng))
        before = manager.engine.tracker.category("preprocessing")
        samples = manager.sample_for_training(2)
        assert all(not s.was_materialized for s in samples)
        assert manager.engine.tracker.category("disk_io") > 0
        assert (
            manager.engine.tracker.category("preprocessing") > before
        )

    def test_recompute_statistics_flag(self, rng):
        manager = make_manager(max_materialized=0)
        for __ in range(3):
            manager.process_training_chunk(
                table_for(rng), online_statistics=False
            )
        manager.sample_for_training(2, recompute_statistics=True)
        labels = manager.engine.tracker.breakdown().by_label
        assert any(key.startswith("recompute:") for key in labels)


class TestFullRetrain:
    def test_warm_retrain_reads_all_history(self, rng):
        manager = make_manager()
        for __ in range(4):
            manager.process_training_chunk(table_for(rng))
        scaler = manager.pipeline.component("scaler")
        mean_before = scaler.mean().copy()
        result = manager.full_retrain(
            max_iterations=20, tolerance=0.0, warm_start=True
        )
        assert result.iterations == 20
        # Warm start: statistics were reused, not recomputed.
        assert scaler.mean() == pytest.approx(mean_before)
        labels = manager.engine.tracker.breakdown().by_label
        assert labels["retrain_read"] > 0

    def test_cold_retrain_resets_everything(self, rng):
        manager = make_manager()
        for __ in range(4):
            manager.process_training_chunk(table_for(rng))
        manager.online_step(
            manager.engine.transform_only(
                manager.pipeline, table_for(rng)
            )
        )
        updates_before = manager.model.updates_applied
        manager.full_retrain(
            max_iterations=10, tolerance=0.0, warm_start=False
        )
        # Model was reset; only retrain updates remain.
        assert manager.model.updates_applied == 10
        assert updates_before >= 1

    def test_retrain_without_history_rejected(self):
        with pytest.raises(PipelineError, match="no stored history"):
            make_manager().full_retrain()

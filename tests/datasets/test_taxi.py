"""Unit tests for the synthetic taxi stream generator."""

import numpy as np
import pytest

from repro.datasets.taxi import (
    MAX_TRIP_SECONDS,
    MIN_TRIP_SECONDS,
    TAXI_FEATURE_COLUMNS,
    TaxiStreamGenerator,
    make_taxi_pipeline,
)


def small_generator(**overrides):
    defaults = dict(num_chunks=6, rows_per_chunk=30, seed=5)
    defaults.update(overrides)
    return TaxiStreamGenerator(**defaults)


class TestDeterminism:
    def test_same_seed_same_chunks(self):
        assert small_generator().chunk(2) == small_generator().chunk(2)

    def test_different_seeds_differ(self):
        a = small_generator(seed=1).chunk(0)
        b = small_generator(seed=2).chunk(0)
        assert a != b


class TestStreamShape:
    def test_schema(self):
        table = small_generator().chunk(0)
        assert set(table.column_names) == {
            "pickup_datetime", "dropoff_datetime",
            "pickup_lat", "pickup_lon",
            "dropoff_lat", "dropoff_lon",
            "passenger_count",
        }

    def test_chunks_advance_hourly(self):
        generator = small_generator()
        first = generator.chunk(0)["pickup_datetime"]
        second = generator.chunk(1)["pickup_datetime"]
        # Pickups stay inside their own hour.
        assert first.min() >= generator.start_epoch
        assert first.max() < generator.start_epoch + 3600
        assert second.min() >= generator.start_epoch + 3600
        assert second.max() < generator.start_epoch + 7200

    def test_durations_positive(self):
        table = small_generator(anomaly_rate=0.0).chunk(0)
        durations = (
            table["dropoff_datetime"] - table["pickup_datetime"]
        )
        assert np.all(durations > 0)

    def test_stream_length(self):
        assert len(list(small_generator().stream())) == 6

    def test_chunk_bounds(self):
        with pytest.raises(ValueError):
            small_generator().chunk(6)


class TestAnomalies:
    def test_anomalies_injected(self):
        generator = small_generator(
            anomaly_rate=0.5, rows_per_chunk=200
        )
        table = generator.chunk(0)
        durations = (
            table["dropoff_datetime"] - table["pickup_datetime"]
        )
        zero_distance = (
            (table["pickup_lat"] == table["dropoff_lat"])
            & (table["pickup_lon"] == table["dropoff_lon"])
        )
        anomalous = (
            (durations > MAX_TRIP_SECONDS)
            | (durations < MIN_TRIP_SECONDS)
            | zero_distance
        )
        assert anomalous.sum() > 20

    def test_pipeline_filters_them(self):
        generator = small_generator(
            anomaly_rate=0.5, rows_per_chunk=200
        )
        pipeline = make_taxi_pipeline()
        features = pipeline.update_transform(
            generator.chunk(0)
        )
        assert features.num_rows < 200
        detector = pipeline.component("anomaly_detector")
        assert detector.rows_dropped > 0


class TestConcept:
    def test_log_duration_learnable(self):
        """Linear regression must reach near the noise floor."""
        import warnings

        from repro.ml.models import LinearRegression
        from repro.ml.optim import RMSProp
        from repro.ml.regularizers import L2
        from repro.ml.sgd import SGDTrainer

        generator = small_generator(noise_std=0.1)
        pipeline = make_taxi_pipeline()
        table = generator.initial_data(1500)[0]
        features = pipeline.update_transform(table)
        model = LinearRegression(
            len(TAXI_FEATURE_COLUMNS), regularizer=L2(1e-4)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            SGDTrainer(model, RMSProp(0.05)).train(
                features.matrix, features.labels,
                max_iterations=800, tolerance=1e-9, seed=0,
            )
        rmse = float(
            np.sqrt(
                np.mean(
                    (model.predict(features.matrix) - features.labels)
                    ** 2
                )
            )
        )
        assert rmse < 0.2

    def test_stationary_concept(self):
        """Early and late chunks share the duration distribution."""
        generator = small_generator(
            num_chunks=40, rows_per_chunk=100, anomaly_rate=0.0
        )
        early = generator.chunk(0)
        late = generator.chunk(39)
        early_mean = np.log1p(
            early["dropoff_datetime"] - early["pickup_datetime"]
        ).mean()
        late_mean = np.log1p(
            late["dropoff_datetime"] - late["pickup_datetime"]
        ).mean()
        assert early_mean == pytest.approx(late_mean, abs=0.3)


class TestPipelineFactory:
    def test_eleven_features(self):
        pipeline = make_taxi_pipeline()
        features = pipeline.update_transform(
            small_generator().chunk(0)
        )
        assert features.num_features == len(TAXI_FEATURE_COLUMNS) == 11

    def test_labels_in_log_space(self):
        generator = small_generator(anomaly_rate=0.0)
        pipeline = make_taxi_pipeline()
        table = generator.chunk(0)
        features = pipeline.update_transform(table)
        durations = (
            table["dropoff_datetime"] - table["pickup_datetime"]
        )
        assert features.labels == pytest.approx(np.log1p(durations))

    def test_component_names(self):
        names = make_taxi_pipeline().component_names
        assert names[0] == "input_parser"
        assert "anomaly_detector" in names
        assert names[-1] == "assembler"

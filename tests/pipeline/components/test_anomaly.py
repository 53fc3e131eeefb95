"""Unit tests for row-filtering components."""

import numpy as np
import pytest

from repro.data.table import Table
from repro.exceptions import PipelineError, ValidationError
from repro.pipeline.components.anomaly import AnomalyFilter, RangeFilter


class TestAnomalyFilter:
    def test_keeps_rows_where_predicate_true(self):
        component = AnomalyFilter(lambda t: np.asarray(t["x"]) > 0)
        table = Table({"x": [-1.0, 2.0, 3.0]})
        result = component.transform(table)
        assert np.array_equal(result["x"], [2.0, 3.0])

    def test_counts_drops(self):
        component = AnomalyFilter(lambda t: np.asarray(t["x"]) > 0)
        component.transform(Table({"x": [-1.0, 2.0]}))
        component.transform(Table({"x": [-1.0, -2.0]}))
        assert component.rows_seen == 4
        assert component.rows_dropped == 3

    def test_bad_mask_shape_rejected(self):
        component = AnomalyFilter(lambda t: np.array([True]))
        with pytest.raises(PipelineError, match="shape"):
            component.transform(Table({"x": [1.0, 2.0]}))

    def test_requires_table(self):
        from repro.pipeline.component import Features

        component = AnomalyFilter(lambda t: np.array([True]))
        with pytest.raises(PipelineError):
            component.transform(
                Features(matrix=np.ones((1, 1)), labels=np.ones(1))
            )

    def test_is_stateless(self):
        assert not AnomalyFilter(lambda t: t["x"] > 0).is_stateful


class TestRangeFilter:
    def test_both_bounds(self):
        component = RangeFilter("x", minimum=1.0, maximum=3.0)
        result = component.transform(Table({"x": [0.0, 1.0, 2.5, 4.0]}))
        assert np.array_equal(result["x"], [1.0, 2.5])

    def test_bounds_inclusive(self):
        component = RangeFilter("x", minimum=1.0, maximum=2.0)
        result = component.transform(Table({"x": [1.0, 2.0]}))
        assert result.num_rows == 2

    def test_minimum_only(self):
        component = RangeFilter("x", minimum=0.0)
        result = component.transform(Table({"x": [-5.0, 5.0]}))
        assert np.array_equal(result["x"], [5.0])

    def test_maximum_only(self):
        component = RangeFilter("x", maximum=0.0)
        result = component.transform(Table({"x": [-5.0, 5.0]}))
        assert np.array_equal(result["x"], [-5.0])

    def test_nan_always_dropped(self):
        component = RangeFilter("x", minimum=-1e9)
        result = component.transform(Table({"x": [np.nan, 1.0]}))
        assert result.num_rows == 1

    def test_no_bounds_rejected(self):
        with pytest.raises(ValidationError, match="at least one"):
            RangeFilter("x")

    def test_crossed_bounds_rejected(self):
        with pytest.raises(ValidationError, match="exceeds"):
            RangeFilter("x", minimum=5.0, maximum=1.0)


class TestTaxiAnomalyRules:
    """The paper's trip filters, via the taxi pipeline factory."""

    def test_filters_paper_anomalies(self):
        from repro.datasets.taxi import make_taxi_pipeline

        pipeline = make_taxi_pipeline()
        table = Table(
            {
                "pickup_datetime": [0.0, 0.0, 0.0],
                # Trip 0: fine (600 s). Trip 1: instant (5 s).
                # Trip 2: over-long (23 h).
                "dropoff_datetime": [600.0, 5.0, 23.0 * 3600],
                "pickup_lat": [40.75, 40.75, 40.75],
                "pickup_lon": [-73.98, -73.98, -73.98],
                "dropoff_lat": [40.80, 40.80, 40.80],
                "dropoff_lon": [-73.90, -73.90, -73.90],
                "passenger_count": [1.0, 1.0, 1.0],
            }
        )
        features = pipeline.transform(table)
        assert features.num_rows == 1

    def test_filters_zero_distance(self):
        from repro.datasets.taxi import make_taxi_pipeline

        pipeline = make_taxi_pipeline()
        table = Table(
            {
                "pickup_datetime": [0.0],
                "dropoff_datetime": [600.0],
                "pickup_lat": [40.75],
                "pickup_lon": [-73.98],
                "dropoff_lat": [40.75],
                "dropoff_lon": [-73.98],
                "passenger_count": [1.0],
            }
        )
        features = pipeline.transform(table)
        assert features.num_rows == 0

"""Unit tests for metrics and the prequential tracker."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.ml.metrics import (
    PrequentialTracker,
    accuracy,
    errors_from_predictions,
    mean_squared_error,
    metric_kind,
    misclassification_rate,
    rmsle,
    rmsle_from_log,
)


class TestPointMetrics:
    def test_misclassification_rate(self):
        y = np.array([1.0, -1.0, 1.0, 1.0])
        p = np.array([1.0, 1.0, 1.0, -1.0])
        assert misclassification_rate(y, p) == 0.5
        assert accuracy(y, p) == 0.5

    def test_perfect_predictions(self):
        y = np.array([1.0, -1.0])
        assert misclassification_rate(y, y) == 0.0
        assert accuracy(y, y) == 1.0

    def test_mean_squared_error(self):
        y = np.array([0.0, 2.0])
        p = np.array([1.0, 0.0])
        assert mean_squared_error(y, p) == pytest.approx(2.5)

    def test_rmsle_basics(self):
        y = np.array([np.e - 1.0])
        p = np.array([0.0])
        assert rmsle(y, p) == pytest.approx(1.0)

    def test_rmsle_clips_negative_predictions(self):
        y = np.array([0.0])
        p = np.array([-5.0])
        assert rmsle(y, p) == 0.0

    def test_rmsle_rejects_negative_targets(self):
        with pytest.raises(ValidationError):
            rmsle(np.array([-1.0]), np.array([1.0]))

    def test_rmsle_from_log_is_rmse(self):
        log_y = np.array([1.0, 2.0])
        log_p = np.array([2.0, 2.0])
        assert rmsle_from_log(log_y, log_p) == pytest.approx(
            np.sqrt(0.5)
        )

    def test_consistency_between_rmsle_forms(self, rng):
        y = np.abs(rng.standard_normal(30)) * 100
        p = np.abs(rng.standard_normal(30)) * 100
        assert rmsle(y, p) == pytest.approx(
            rmsle_from_log(np.log1p(y), np.log1p(p))
        )

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            misclassification_rate(np.ones(2), np.ones(3))

    def test_empty_arrays(self):
        with pytest.raises(ValidationError):
            mean_squared_error(np.array([]), np.array([]))


class TestPrequentialTracker:
    def test_rate_accumulates(self):
        tracker = PrequentialTracker(kind="rate")
        tracker.add_chunk(error_sum=2, count=10)   # 0.2
        tracker.add_chunk(error_sum=0, count=10)   # 2/20
        assert tracker.value() == pytest.approx(0.1)
        assert tracker.history == pytest.approx([0.2, 0.1])

    def test_rmse_accumulates(self):
        tracker = PrequentialTracker(kind="rmse")
        tracker.add_chunk(error_sum=4.0, count=4)  # mse 1
        assert tracker.value() == pytest.approx(1.0)
        tracker.add_chunk(error_sum=0.0, count=4)  # mse 0.5
        assert tracker.value() == pytest.approx(np.sqrt(0.5))

    def test_average_over_time(self):
        tracker = PrequentialTracker()
        tracker.add_chunk(2, 10)
        tracker.add_chunk(0, 10)
        assert tracker.average_over_time() == pytest.approx(0.15)

    def test_empty_values(self):
        tracker = PrequentialTracker()
        assert tracker.value() == 0.0
        assert tracker.average_over_time() == 0.0

    def test_invalid_kind(self):
        with pytest.raises(ValidationError):
            PrequentialTracker(kind="auc")

    def test_invalid_chunks(self):
        tracker = PrequentialTracker()
        with pytest.raises(ValidationError):
            tracker.add_chunk(1, 0)
        with pytest.raises(ValidationError):
            tracker.add_chunk(-1, 5)


def _old_chunk_error(metric, predictions, labels):
    """``Deployment._chunk_error`` as every loop spelled it before
    scoring moved into :meth:`PrequentialTracker.score`."""
    if metric == "classification":
        return float(np.sum(predictions != labels))
    residual = predictions - labels
    return float(np.sum(residual * residual))


def _chunks(metric, seed=11, count=6):
    rng = np.random.default_rng(seed)
    for index in range(count):
        rows = 0 if index == 2 else int(rng.integers(1, 40))
        labels = rng.standard_normal(rows)
        predictions = labels + rng.standard_normal(rows)
        if metric == "classification":
            labels, predictions = np.sign(labels), np.sign(predictions)
        yield predictions, labels


class TestScoreMatchesTheOldLoop:
    """``score`` is bit-equal to ``_chunk_error`` + ``add_chunk`` behind
    the loop's ``if len(labels)`` guard (== comparisons, not approx)."""

    @pytest.mark.parametrize("metric", ["classification", "regression"])
    def test_bit_equal_including_an_empty_chunk(self, metric):
        new = PrequentialTracker.for_metric(metric)
        old = PrequentialTracker(kind=metric_kind(metric))
        for predictions, labels in _chunks(metric):
            expected = None
            if len(labels):
                error_sum = _old_chunk_error(metric, predictions, labels)
                old.add_chunk(error_sum, len(labels))
                expected = error_sum / len(labels)
            assert new.score(predictions, labels) == expected
            assert new.value() == old.value()
            assert new.total_error == old.total_error
            assert new.total_count == old.total_count

    def test_empty_chunk_carries_the_value_forward(self):
        tracker = PrequentialTracker.for_metric("classification")
        empty = np.array([])
        assert tracker.score(empty, empty) is None
        assert tracker.history == [0.0]
        tracker.score(np.array([1.0, -1.0]), np.array([1.0, 1.0]))
        assert tracker.score(empty, empty) is None
        assert tracker.history == [0.0, 0.5, 0.5]
        assert tracker.total_count == 2

    @pytest.mark.parametrize("metric", ["classification", "regression"])
    def test_row_errors_sum_to_the_chunk_error(self, metric):
        for predictions, labels in _chunks(metric):
            rows = errors_from_predictions(
                metric_kind(metric), predictions, labels
            )
            assert rows.shape == labels.shape
            assert float(np.sum(rows)) == _old_chunk_error(
                metric, predictions, labels
            )

    def test_metric_kind(self):
        assert metric_kind("classification") == "rate"
        assert metric_kind("regression") == "rmse"
        with pytest.raises(ValidationError, match="metric must be"):
            metric_kind("auc")

"""Unit tests for incremental statistics (Welford, min-max, sparse
moments)."""

import pickle

import numpy as np
import pytest

from repro.exceptions import NotFittedError, ValidationError
from repro.pipeline.statistics import (
    RunningMinMax,
    RunningMoments,
    SparseMoments,
)

from tests.sparse import entries


class TestRunningMoments:
    def test_matches_numpy_single_batch(self, rng):
        data = rng.standard_normal((100, 3))
        moments = RunningMoments()
        moments.update(data)
        assert moments.mean() == pytest.approx(data.mean(axis=0))
        assert moments.variance() == pytest.approx(data.var(axis=0))

    def test_matches_numpy_across_batches(self, rng):
        data = rng.standard_normal((90, 4))
        moments = RunningMoments()
        for start in range(0, 90, 7):
            moments.update(data[start:start + 7])
        assert moments.mean() == pytest.approx(data.mean(axis=0))
        assert moments.std() == pytest.approx(data.std(axis=0))

    def test_1d_batch_treated_as_single_coordinate(self):
        moments = RunningMoments()
        moments.update(np.array([1.0, 2.0, 3.0]))
        assert moments.mean() == pytest.approx([2.0])

    def test_nan_skipped_per_coordinate(self):
        moments = RunningMoments()
        moments.update(
            np.array([[1.0, np.nan], [3.0, 10.0], [5.0, 20.0]])
        )
        assert moments.mean() == pytest.approx([3.0, 15.0])
        assert moments.count.tolist() == [3.0, 2.0]

    def test_all_nan_coordinate_mean_zero(self):
        moments = RunningMoments()
        moments.update(np.array([[np.nan, 1.0], [np.nan, 3.0]]))
        assert moments.mean() == pytest.approx([0.0, 2.0])

    def test_merge_equals_single_pass(self, rng):
        data = rng.standard_normal((60, 2))
        left, right = RunningMoments(), RunningMoments()
        left.update(data[:25])
        right.update(data[25:])
        left.merge(right)
        assert left.mean() == pytest.approx(data.mean(axis=0))
        assert left.variance() == pytest.approx(data.var(axis=0))

    def test_merge_into_empty(self, rng):
        data = rng.standard_normal((10, 2))
        filled = RunningMoments()
        filled.update(data)
        empty = RunningMoments()
        empty.merge(filled)
        assert empty.mean() == pytest.approx(data.mean(axis=0))

    def test_dim_mismatch_rejected(self):
        moments = RunningMoments(dim=2)
        with pytest.raises(ValidationError):
            moments.update(np.ones((3, 4)))

    def test_merge_dim_mismatch_rejected(self):
        left, right = RunningMoments(dim=2), RunningMoments(dim=3)
        right.update(np.ones((2, 3)))
        with pytest.raises(ValidationError):
            left.merge(right)

    def test_unseen_raises(self):
        with pytest.raises(NotFittedError):
            RunningMoments().mean()

    def test_empty_batch_noop(self):
        moments = RunningMoments(dim=2)
        moments.update(np.empty((0, 2)))
        assert moments.total_count == 0

    def test_numerical_stability_large_offset(self):
        """Welford must not cancel catastrophically at large means."""
        data = 1e9 + np.array([1.0, 2.0, 3.0, 4.0])
        moments = RunningMoments()
        moments.update(data[:, None])
        assert moments.variance()[0] == pytest.approx(1.25, rel=1e-6)


class TestRunningMinMax:
    def test_tracks_extrema(self, rng):
        data = rng.standard_normal((50, 3))
        extrema = RunningMinMax()
        for start in range(0, 50, 9):
            extrema.update(data[start:start + 9])
        assert extrema.minimum() == pytest.approx(data.min(axis=0))
        assert extrema.maximum() == pytest.approx(data.max(axis=0))

    def test_nan_ignored(self):
        extrema = RunningMinMax()
        extrema.update(np.array([[1.0], [np.nan], [3.0]]))
        assert extrema.minimum() == pytest.approx([1.0])
        assert extrema.maximum() == pytest.approx([3.0])

    def test_span(self):
        extrema = RunningMinMax()
        extrema.update(np.array([[1.0, 5.0], [3.0, 5.0]]))
        assert extrema.span() == pytest.approx([2.0, 0.0])

    def test_merge(self):
        left, right = RunningMinMax(), RunningMinMax()
        left.update(np.array([[1.0], [2.0]]))
        right.update(np.array([[-4.0], [0.5]]))
        left.merge(right)
        assert left.minimum() == pytest.approx([-4.0])
        assert left.maximum() == pytest.approx([2.0])

    def test_unseen_raises(self):
        with pytest.raises(NotFittedError):
            RunningMinMax().minimum()


class TestSparseMoments:
    def test_matches_dense_welford(self, rng):
        dense = rng.standard_normal((40, 3))
        sparse_rows = [
            {j: float(dense[i, j]) for j in range(3)} for i in range(40)
        ]
        sparse = SparseMoments()
        sparse.update(*entries(sparse_rows))
        for j in range(3):
            assert sparse.mean(j) == pytest.approx(dense[:, j].mean())
            assert sparse.std(j) == pytest.approx(dense[:, j].std())

    def test_nan_values_skipped(self):
        moments = SparseMoments()
        moments.update(*entries([{0: 1.0}, {0: float("nan")}, {0: 3.0}]))
        assert moments.count(0) == 2
        assert moments.mean(0) == pytest.approx(2.0)

    def test_defaults_for_unseen(self):
        moments = SparseMoments()
        assert moments.mean(7, default=0.5) == 0.5
        assert moments.std(7, default=1.5) == 1.5
        assert moments.count(7) == 0

    def test_zero_variance_std_default(self):
        moments = SparseMoments()
        moments.update(*entries([{0: 2.0}, {0: 2.0}]))
        assert moments.std(0, default=1.0) == 1.0

    def test_merge_matches_single_pass(self, rng):
        values = rng.standard_normal(30)
        rows = [{0: float(v)} for v in values]
        whole = SparseMoments()
        whole.update(*entries(rows))
        left, right = SparseMoments(), SparseMoments()
        left.update(*entries(rows[:11]))
        right.update(*entries(rows[11:]))
        left.merge(right)
        assert left.mean(0) == pytest.approx(whole.mean(0))
        assert left.std(0) == pytest.approx(whole.std(0))

    def test_indices(self):
        moments = SparseMoments()
        moments.update(*entries([{3: 1.0, 8: 2.0}]))
        assert sorted(moments.indices()) == [3, 8]


class TestSparseMomentsState:
    """State is the logical content: equal statistics, equal bytes."""

    ROWS = [
        {8: 1.0, 3: 2.0},
        {3: 5.0, 8: float("nan"), -2: 0.0},
        {10**12: 4.0, 3: -1.0},
        {-2: 6.0, 8: 2.0},
    ]

    def test_chunking_does_not_change_the_pickle(self):
        at_once, row_by_row = SparseMoments(), SparseMoments()
        at_once.update(*entries(self.ROWS))
        for row in self.ROWS:
            row_by_row.update(*entries([row]))
        assert pickle.dumps(at_once) == pickle.dumps(row_by_row)
        restored = pickle.loads(pickle.dumps(at_once))
        assert pickle.dumps(restored) == pickle.dumps(at_once)

    def test_arrival_order_of_indices_does_not_change_the_pickle(self):
        """Keys are kept sorted, so two accumulators that met the same
        indices in a different order hold the same arrays."""
        forward, backward = SparseMoments(), SparseMoments()
        forward.update(*entries([{1: 2.0}, {5: 3.0}, {-4: 1.0}]))
        backward.update(*entries([{-4: 1.0}, {5: 3.0}, {1: 2.0}]))
        assert forward.indices() == [-4, 1, 5]
        assert pickle.dumps(forward) == pickle.dumps(backward)

    def test_no_spare_capacity(self):
        moments = SparseMoments()
        for row in self.ROWS:
            moments.update(*entries([row]))
            assert len(moments._keys) == len(moments)
            assert moments._table.shape == (3, len(moments))

    def test_index_first_seen_as_nan_gets_no_entry(self):
        moments = SparseMoments()
        moments.update(*entries([{4: float("nan")}]))
        assert len(moments) == 0 and moments.count(4) == 0
        moments.update(*entries([{4: 2.0}]))
        assert moments.count(4) == 1 and moments.mean(4) == 2.0

    def test_vector_lookups_match_scalar_ones(self):
        moments = SparseMoments()
        moments.update(*entries(self.ROWS))
        asked = np.array([3, 999, 8, -2, 10**12, 3])
        assert moments.means(asked, 0.5).tolist() == [
            moments.mean(int(i), 0.5) for i in asked
        ]
        assert moments.stds(asked, 1.5).tolist() == [
            moments.std(int(i), 1.5) for i in asked
        ]


class TestMomentsMergeAssociativity:
    def test_three_way_merge_order_independent(self, rng):
        data = rng.standard_normal((90, 2))
        parts = [data[:30], data[30:60], data[60:]]

        def accumulate(order):
            total = RunningMoments()
            for index in order:
                part = RunningMoments()
                part.update(parts[index])
                total.merge(part)
            return total

        forward = accumulate([0, 1, 2])
        backward = accumulate([2, 1, 0])
        assert forward.mean() == pytest.approx(backward.mean())
        assert forward.variance() == pytest.approx(
            backward.variance(), rel=1e-9, abs=1e-9
        )

    def test_merge_empty_is_identity(self, rng):
        data = rng.standard_normal((20, 2))
        filled = RunningMoments()
        filled.update(data)
        before_mean = filled.mean().copy()
        filled.merge(RunningMoments())
        assert np.array_equal(filled.mean(), before_mean)

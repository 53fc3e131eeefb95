"""Unit tests for the feature scalers."""

import numpy as np
import pytest

from repro.data.table import Table
from repro.exceptions import PipelineError, ValidationError
from repro.pipeline.components.scaler import (
    MinMaxScaler,
    SparseStandardScaler,
    StandardScaler,
)

from tests.sparse import row_dict, sparse_rows


class TestStandardScaler:
    def test_zscores_after_update(self, rng):
        data = rng.standard_normal(200) * 5 + 10
        table = Table({"x": data})
        scaler = StandardScaler(columns=["x"])
        scaler.update(table)
        scaled = scaler.transform(table)["x"]
        assert scaled.mean() == pytest.approx(0.0, abs=1e-9)
        assert scaled.std() == pytest.approx(1.0, abs=1e-9)

    def test_identity_before_any_update(self):
        scaler = StandardScaler(columns=["x"])
        table = Table({"x": [5.0, 7.0]})
        assert np.array_equal(scaler.transform(table)["x"], [5.0, 7.0])

    def test_online_statistics_accumulate(self, rng):
        data = rng.standard_normal(100) * 3 + 4
        scaler = StandardScaler(columns=["x"])
        for start in range(0, 100, 10):
            scaler.update(Table({"x": data[start:start + 10]}))
        assert scaler.mean()[0] == pytest.approx(data.mean())
        assert scaler.std()[0] == pytest.approx(data.std())

    def test_zero_variance_column_not_divided(self):
        scaler = StandardScaler(columns=["x"])
        table = Table({"x": [2.0, 2.0, 2.0]})
        scaler.update(table)
        scaled = scaler.transform(table)["x"]
        assert np.allclose(scaled, 0.0)  # centered, not divided by 0

    def test_with_std_only(self):
        scaler = StandardScaler(columns=["x"], with_mean=False)
        table = Table({"x": [0.0, 10.0]})
        scaler.update(table)
        scaled = scaler.transform(table)["x"]
        assert scaled[0] == 0.0  # no centering
        assert scaled[1] == pytest.approx(2.0)  # std = 5

    def test_neither_mean_nor_std_rejected(self):
        with pytest.raises(ValidationError, match="identity"):
            StandardScaler(
                columns=["x"], with_mean=False, with_std=False
            )

    def test_untouched_columns_pass_through(self):
        scaler = StandardScaler(columns=["x"])
        table = Table({"x": [1.0, 3.0], "y": [5.0, 6.0]})
        scaler.update(table)
        assert np.array_equal(scaler.transform(table)["y"], [5.0, 6.0])

    def test_reset(self):
        scaler = StandardScaler(columns=["x"])
        scaler.update(Table({"x": [1.0, 9.0]}))
        scaler.reset()
        table = Table({"x": [5.0]})
        assert scaler.transform(table)["x"][0] == 5.0

    def test_requires_table(self):
        from repro.pipeline.component import Features

        with pytest.raises(PipelineError):
            StandardScaler(columns=["x"]).transform(
                Features(matrix=np.ones((1, 1)), labels=np.ones(1))
            )

    def test_empty_columns_rejected(self):
        with pytest.raises(ValidationError):
            StandardScaler(columns=[])


class TestMinMaxScaler:
    def test_scales_to_unit_interval(self):
        scaler = MinMaxScaler(columns=["x"])
        table = Table({"x": [0.0, 5.0, 10.0]})
        scaler.update(table)
        assert scaler.transform(table)["x"] == pytest.approx(
            [0.0, 0.5, 1.0]
        )

    def test_extrapolates_outside_seen_range(self):
        scaler = MinMaxScaler(columns=["x"])
        scaler.update(Table({"x": [0.0, 10.0]}))
        scaled = scaler.transform(Table({"x": [20.0]}))["x"]
        assert scaled[0] == pytest.approx(2.0)

    def test_constant_column_maps_to_zero(self):
        scaler = MinMaxScaler(columns=["x"])
        table = Table({"x": [3.0, 3.0]})
        scaler.update(table)
        assert np.allclose(scaler.transform(table)["x"], 0.0)

    def test_identity_before_update(self):
        scaler = MinMaxScaler(columns=["x"])
        table = Table({"x": [4.0]})
        assert scaler.transform(table)["x"][0] == 4.0

    def test_reset(self):
        scaler = MinMaxScaler(columns=["x"])
        scaler.update(Table({"x": [0.0, 2.0]}))
        scaler.reset()
        assert scaler.transform(Table({"x": [2.0]}))["x"][0] == 2.0


class TestSparseStandardScaler:
    def test_scales_by_index_std(self):
        batch = sparse_rows([{0: v} for v in (1.0, 3.0, 5.0, 7.0)])
        scaler = SparseStandardScaler()
        scaler.update(batch)
        std = np.array([1.0, 3.0, 5.0, 7.0]).std()
        scaled = scaler.transform(batch)
        assert row_dict(scaled, 0)[0] == pytest.approx(1.0 / std)

    def test_no_centering(self):
        """Sparse scaling must not shift zero entries (sparsity!)."""
        batch = sparse_rows([{0: 2.0}, {0: 4.0}])
        scaler = SparseStandardScaler()
        scaler.update(batch)
        scaled = scaler.transform(batch)
        # Both values stay positive: scaled, never centered.
        assert row_dict(scaled, 0)[0] > 0 and row_dict(scaled, 1)[0] > 0

    def test_unseen_index_passes_through(self):
        scaler = SparseStandardScaler()
        scaled = scaler.transform(sparse_rows([{99: 4.0}]))
        assert row_dict(scaled, 0)[99] == 4.0

    def test_std_accessor(self):
        scaler = SparseStandardScaler()
        assert scaler.std(3) == 1.0

    def test_reset(self):
        scaler = SparseStandardScaler()
        scaler.update(sparse_rows([{0: 1.0}, {0: 9.0}]))
        assert scaler.num_indices_seen == 1
        scaler.reset()
        assert scaler.num_indices_seen == 0

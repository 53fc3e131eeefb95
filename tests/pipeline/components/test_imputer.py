"""Unit tests for the missing-value imputers."""

import numpy as np
import pytest

from repro.data.table import Table
from repro.exceptions import PipelineError, ValidationError
from repro.pipeline.components.imputer import (
    MissingValueImputer,
    SparseMeanImputer,
)

from tests.sparse import row_dict, sparse_rows


class TestMissingValueImputer:
    def test_mean_strategy(self, numeric_table):
        imputer = MissingValueImputer(columns=["b"])
        imputer.update(numeric_table)
        result = imputer.transform(numeric_table)
        # Mean of the observed values 10, 30, 40.
        assert result["b"][1] == pytest.approx(80.0 / 3.0)
        # Observed values untouched.
        assert result["b"][0] == 10.0

    def test_mean_accumulates_across_batches(self):
        imputer = MissingValueImputer(columns=["a"])
        imputer.update(Table({"a": [2.0, 4.0]}))
        imputer.update(Table({"a": [12.0]}))
        result = imputer.transform(Table({"a": [np.nan]}))
        assert result["a"][0] == pytest.approx(6.0)

    def test_constant_strategy(self):
        imputer = MissingValueImputer(
            columns=["a"], strategy="constant", fill_value=-9.0
        )
        result = imputer.transform(Table({"a": [np.nan, 2.0]}))
        assert result["a"][0] == -9.0
        assert result["a"][1] == 2.0

    def test_before_any_update_uses_fill_value(self):
        imputer = MissingValueImputer(columns=["a"], fill_value=7.0)
        result = imputer.transform(Table({"a": [np.nan]}))
        assert result["a"][0] == 7.0

    def test_transform_does_not_change_state(self, numeric_table):
        imputer = MissingValueImputer(columns=["b"])
        imputer.update(numeric_table)
        first = imputer.transform(numeric_table)["b"][1]
        second = imputer.transform(numeric_table)["b"][1]
        assert first == second

    def test_reset(self, numeric_table):
        imputer = MissingValueImputer(columns=["b"], fill_value=0.0)
        imputer.update(numeric_table)
        imputer.reset()
        result = imputer.transform(Table({"b": [np.nan]}))
        assert result["b"][0] == 0.0

    def test_invalid_strategy(self):
        with pytest.raises(ValidationError, match="strategy"):
            MissingValueImputer(columns=["a"], strategy="median")

    def test_empty_columns(self):
        with pytest.raises(ValidationError):
            MissingValueImputer(columns=[])

    def test_requires_table(self):
        from repro.pipeline.component import Features

        imputer = MissingValueImputer(columns=["a"])
        with pytest.raises(PipelineError):
            imputer.transform(
                Features(matrix=np.ones((1, 1)), labels=np.ones(1))
            )

    def test_is_stateful(self):
        assert MissingValueImputer(columns=["a"]).is_stateful


class TestSparseMeanImputer:
    def test_fills_nan_with_index_mean(self, sparse_table):
        imputer = SparseMeanImputer()
        imputer.update(sparse_table)
        result = imputer.transform(sparse_table)
        # Index 5 observed once (2.0); NaN filled with that mean.
        assert row_dict(result, 1)[5] == pytest.approx(2.0)
        # Non-NaN entries untouched.
        assert row_dict(result, 0)[5] == 2.0

    def test_unseen_index_uses_fill_value(self):
        batch = sparse_rows([{42: float("nan")}])
        imputer = SparseMeanImputer(fill_value=0.25)
        result = imputer.transform(batch)
        assert row_dict(result, 0)[42] == 0.25

    def test_rows_without_nan_pass_through_identically(self):
        batch = sparse_rows([{1: 3.0}])
        imputer = SparseMeanImputer()
        result = imputer.transform(batch)
        assert result.data is batch.data

    def test_transform_leaves_input_untouched(self, sparse_table):
        before = sparse_table.data.copy()
        imputer = SparseMeanImputer()
        imputer.update(sparse_table)
        imputer.transform(sparse_table)
        assert np.array_equal(sparse_table.data, before, equal_nan=True)

    def test_num_indices_seen(self, sparse_table):
        imputer = SparseMeanImputer()
        imputer.update(sparse_table)
        # Indices 0, 1, 5 carry non-NaN observations.
        assert imputer.num_indices_seen == 3

    def test_reset(self, sparse_table):
        imputer = SparseMeanImputer()
        imputer.update(sparse_table)
        imputer.reset()
        assert imputer.num_indices_seen == 0

    def test_requires_sparse_rows(self):
        with pytest.raises(PipelineError, match="expects a SparseRows"):
            SparseMeanImputer().transform(Table({"a": [1.0]}))

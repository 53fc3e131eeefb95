"""Unit tests for the component contract and Features batches."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.data.table import Table
from repro.exceptions import PipelineError
from repro.pipeline.component import (
    Batch,
    ComponentKind,
    Features,
    PipelineComponent,
    StatelessComponent,
    union_features,
)

from tests.sparse import sparse_rows


class Recorder(PipelineComponent):
    """Stateful component recording call order for contract tests."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def update(self, batch: Batch) -> None:
        self.calls.append("update")

    def transform(self, batch: Batch) -> Batch:
        self.calls.append("transform")
        return batch


class TestFeatures:
    def test_dense_properties(self):
        features = Features(matrix=np.ones((3, 4)), labels=np.ones(3))
        assert features.num_rows == 3
        assert features.num_features == 4
        assert features.num_values() == 12 + 3

    def test_sparse_num_values_uses_nnz(self):
        matrix = sp.csr_matrix((np.ones(2), ([0, 1], [0, 5])), shape=(2, 100))
        features = Features(matrix=matrix, labels=np.ones(2))
        assert features.num_values() == 2 + 2


class TestSparseRows:
    def test_counts_entries_and_labels(self):
        """What the dict column used to count per row, plus the labels
        that sat beside it — the cost charge must not move."""
        rows = sparse_rows([{0: 1.0, 1: 2.0, 2: 3.0}, {5: 1.0}])
        assert rows.num_rows == 2
        assert rows.num_values() == 4 + 2
        assert PipelineComponent.batch_num_values(rows) == 6

    def test_requirement_names_the_expected_batch(self):
        component = Recorder()
        rows = sparse_rows([{0: 1.0}])
        assert component._require_rows(rows) is rows
        with pytest.raises(PipelineError, match="expects a SparseRows"):
            component._require_rows(Table({"a": [1.0]}))
        with pytest.raises(PipelineError, match="expects a Table"):
            component._require_table(rows)


class TestUnionFeatures:
    def test_dense_union(self):
        parts = [
            Features(matrix=np.ones((2, 3)), labels=np.zeros(2)),
            Features(matrix=2 * np.ones((1, 3)), labels=np.ones(1)),
        ]
        merged = union_features(parts)
        assert merged.matrix.shape == (3, 3)
        assert merged.labels.tolist() == [0.0, 0.0, 1.0]

    def test_sparse_union(self):
        parts = [
            Features(matrix=sp.csr_matrix(np.eye(2)), labels=np.ones(2)),
            Features(matrix=sp.csr_matrix(np.eye(2)), labels=np.ones(2)),
        ]
        merged = union_features(parts)
        assert sp.issparse(merged.matrix)
        assert merged.matrix.shape == (4, 2)

    def test_mixed_rejected(self):
        parts = [
            Features(matrix=np.eye(2), labels=np.ones(2)),
            Features(matrix=sp.csr_matrix(np.eye(2)), labels=np.ones(2)),
        ]
        with pytest.raises(ValueError, match="sparse and dense"):
            union_features(parts)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            union_features([])

    def test_accepts_generator(self):
        merged = union_features(
            Features(matrix=np.ones((1, 1)), labels=np.ones(1))
            for __ in range(2)
        )
        assert merged.num_rows == 2


class TestComponentContract:
    def test_update_transform_order(self):
        component = Recorder()
        component.update_transform(Table({"a": [1]}))
        assert component.calls == ["update", "transform"]

    def test_default_name_is_class_name(self):
        assert Recorder().name == "Recorder"

    def test_custom_name(self):
        class Named(StatelessComponent):
            def transform(self, batch):
                return batch

        assert Named(name="boop").name == "boop"

    def test_stateless_component_flags(self):
        class Passthrough(StatelessComponent):
            def transform(self, batch):
                return batch

        component = Passthrough()
        assert not component.is_stateful
        component.update(Table({"a": [1]}))  # no-op

    def test_batch_num_values_table(self):
        table = Table({"a": [1.0, 2.0]})
        assert PipelineComponent.batch_num_values(table) == 2

    def test_batch_num_values_features(self):
        features = Features(matrix=np.ones((2, 2)), labels=np.ones(2))
        assert PipelineComponent.batch_num_values(features) == 6

    def test_default_reset_is_noop(self):
        Recorder().reset()

    def test_kind_default(self):
        assert Recorder.kind is ComponentKind.DATA_TRANSFORMATION

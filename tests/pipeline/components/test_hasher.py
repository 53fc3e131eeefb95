"""Unit tests for the feature hasher."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import PipelineError, ValidationError
from repro.pipeline.component import Features
from repro.pipeline.components.hasher import FeatureHasher, hash_index

from tests.sparse import sparse_rows


def sparse_rows_table(*rows):
    return sparse_rows(rows)


class TestHashIndex:
    def test_deterministic(self):
        assert hash_index(12345, 64) == hash_index(12345, 64)

    def test_bucket_in_range(self):
        for index in range(1000):
            bucket, sign = hash_index(index, 32)
            assert 0 <= bucket < 32
            assert sign in (1.0, -1.0)

    def test_signs_roughly_balanced(self):
        signs = [hash_index(i, 8)[1] for i in range(2000)]
        positive = sum(1 for s in signs if s > 0)
        assert 800 < positive < 1200

    def test_buckets_roughly_uniform(self):
        counts = np.zeros(16)
        for i in range(4000):
            counts[hash_index(i, 16)[0]] += 1
        assert counts.min() > 150


class TestFeatureHasher:
    def test_output_shape_and_type(self):
        hasher = FeatureHasher(num_features=32)
        result = hasher.transform(
            sparse_rows_table({0: 1.0, 7: 2.0}, {3: 1.0})
        )
        assert isinstance(result, Features)
        assert sp.issparse(result.matrix)
        assert result.matrix.shape == (2, 32)
        assert result.labels.shape == (2,)

    def test_deterministic_across_instances(self):
        table = sparse_rows_table({0: 1.0, 5: 3.0})
        first = FeatureHasher(num_features=16).transform(table)
        second = FeatureHasher(num_features=16).transform(table)
        assert np.array_equal(
            first.matrix.toarray(), second.matrix.toarray()
        )

    def test_value_preserved_up_to_sign(self):
        result = FeatureHasher(num_features=64).transform(
            sparse_rows_table({11: 2.5})
        )
        dense = result.matrix.toarray()[0]
        nonzero = dense[dense != 0]
        assert len(nonzero) == 1
        assert abs(nonzero[0]) == 2.5

    def test_unsigned_mode(self):
        result = FeatureHasher(num_features=64, signed=False).transform(
            sparse_rows_table({11: 2.5})
        )
        assert result.matrix.sum() == 2.5

    def test_collisions_aggregate(self):
        """Two indices in the same bucket must sum, not overwrite."""
        hasher = FeatureHasher(num_features=1)
        result = hasher.transform(
            sparse_rows_table({0: 1.0, 1: 1.0, 2: 1.0})
        )
        __, sign0 = hash_index(0, 1)
        __, sign1 = hash_index(1, 1)
        __, sign2 = hash_index(2, 1)
        expected = sign0 + sign1 + sign2
        assert result.matrix.toarray()[0, 0] == pytest.approx(expected)

    def test_empty_row_encodes_to_zero_vector(self):
        result = FeatureHasher(num_features=8).transform(
            sparse_rows_table({})
        )
        assert result.matrix.nnz == 0

    def test_csr_is_canonical(self):
        result = FeatureHasher(num_features=4).transform(
            sparse_rows_table({0: 1.0, 1: 2.0, 2: 3.0, 3: 4.0})
        )
        indices = result.matrix.indices
        assert np.all(np.diff(indices) > 0)  # sorted within the row

    def test_invalid_width(self):
        with pytest.raises(ValidationError):
            FeatureHasher(num_features=0)

    def test_requires_table(self):
        hasher = FeatureHasher(num_features=4)
        with pytest.raises(PipelineError):
            hasher.transform(
                Features(matrix=np.ones((1, 1)), labels=np.ones(1))
            )

    def test_is_stateless(self):
        assert not FeatureHasher(num_features=4).is_stateful

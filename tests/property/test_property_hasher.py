"""Property-based tests for feature hashing."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pipeline.components.hasher import FeatureHasher, hash_index

from tests.sparse import sparse_rows as to_table

bounded_values = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, width=64
)
sparse_rows = st.dictionaries(
    st.integers(0, 10_000), bounded_values, max_size=12
)


class TestHashIndexProperties:
    @given(st.integers(0, 10**9), st.integers(1, 4096))
    @settings(max_examples=120)
    def test_bucket_bounds_and_sign(self, index, width):
        bucket, sign = hash_index(index, width)
        assert 0 <= bucket < width
        assert sign in (1.0, -1.0)

    @given(st.integers(0, 10**9), st.integers(1, 4096))
    @settings(max_examples=60)
    def test_deterministic(self, index, width):
        assert hash_index(index, width) == hash_index(index, width)


class TestFeatureHasherProperties:
    @given(st.lists(sparse_rows, min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_shape_and_finiteness(self, rows):
        hasher = FeatureHasher(num_features=64)
        result = hasher.transform(to_table(rows))
        assert result.matrix.shape == (len(rows), 64)
        assert np.all(np.isfinite(result.matrix.toarray()))

    @given(sparse_rows, sparse_rows)
    @settings(max_examples=60, deadline=None)
    def test_linearity_over_disjoint_rows(self, left, right):
        """hash(a ∪ b) == hash(a) + hash(b) when indices are disjoint
        — signed hashing is linear in the input values."""
        right = {k: v for k, v in right.items() if k not in left}
        hasher = FeatureHasher(num_features=32)
        combined = hasher.transform(to_table([{**left, **right}]))
        separate_a = hasher.transform(to_table([left]))
        separate_b = hasher.transform(to_table([right]))
        assert np.allclose(
            combined.matrix.toarray(),
            separate_a.matrix.toarray() + separate_b.matrix.toarray(),
            atol=1e-9,
        )

    @given(sparse_rows, st.floats(0.1, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_homogeneity(self, row, scale):
        """Scaling every input value scales the hashed vector."""
        hasher = FeatureHasher(num_features=32)
        base = hasher.transform(to_table([row])).matrix.toarray()
        scaled_row = {k: v * scale for k, v in row.items()}
        scaled = hasher.transform(
            to_table([scaled_row])
        ).matrix.toarray()
        assert np.allclose(scaled, base * scale, rtol=1e-9, atol=1e-9)

    @given(st.lists(sparse_rows, min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_row_independence(self, rows):
        """Each row's encoding is independent of its neighbours."""
        hasher = FeatureHasher(num_features=32)
        together = hasher.transform(to_table(rows)).matrix.toarray()
        for i, row in enumerate(rows):
            alone = hasher.transform(to_table([row])).matrix.toarray()
            assert np.allclose(together[i], alone[0])

"""Batched inference is bit-identical to per-block inference.

The micro-batching front end stacks many requests' feature blocks and
runs one vectorized ``predict``. That is only legal because every
inference kernel in :mod:`repro.ml` scores a row independently of its
neighbours — these tests pin that contract, byte for byte, across
every model type and across varied block sizes (single rows, odd
splits, the whole pool at once).
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import ValidationError
from repro.ml.batch import predict_batch, split_rows, stack_matrices
from repro.ml.models import (
    LinearRegression,
    LinearSVM,
    LogisticRegression,
)

DIM = 11
SPLITS = ([1], [3, 5, 2, 4], [1, 1, 1, 1, 1, 1], [6, 8])


def dense_blocks(rng, counts, dim=DIM):
    return [rng.standard_normal((n, dim)) for n in counts]


def assert_blocks_identical(model, blocks):
    batched = predict_batch(model, blocks)
    assert len(batched) == len(blocks)
    for block, result in zip(blocks, batched):
        alone = model.predict(block)
        assert result.tobytes() == alone.tobytes()


class TestLinearModels:
    @pytest.mark.parametrize("counts", SPLITS)
    def test_linear_regression_dense(self, rng, counts):
        """Regression guard for the BLAS gemv hazard: dense scores
        must not depend on how many rows share the predict call."""
        model = LinearRegression(num_features=DIM)
        model.weights = rng.standard_normal(DIM)
        model.intercept = 0.25
        assert_blocks_identical(model, dense_blocks(rng, counts))

    @pytest.mark.parametrize("counts", SPLITS)
    def test_logistic_regression_dense(self, rng, counts):
        model = LogisticRegression(num_features=DIM)
        model.weights = rng.standard_normal(DIM)
        model.intercept = -0.1
        assert_blocks_identical(model, dense_blocks(rng, counts))

    @pytest.mark.parametrize("counts", SPLITS)
    def test_svm_sparse(self, rng, counts):
        model = LinearSVM(num_features=DIM)
        model.weights = rng.standard_normal(DIM)
        blocks = [
            sp.random(
                n, DIM, density=0.4, format="csr", random_state=7 + i
            )
            for i, n in enumerate(counts)
        ]
        assert_blocks_identical(model, blocks)

    def test_dense_scores_invariant_to_batch_size(self, rng):
        """The same row scored in a 1-row call and inside a 200-row
        call must produce the same bytes (gemv kernels block over
        rows; the per-row reduction must not)."""
        model = LinearRegression(num_features=DIM)
        model.weights = rng.standard_normal(DIM)
        big = rng.standard_normal((200, DIM))
        whole = model.predict(big)
        for i in (0, 7, 63, 199):
            alone = model.predict(big[i: i + 1])
            assert alone.tobytes() == whole[i: i + 1].tobytes()


class TestStackSplit:
    def test_stack_preserves_rows(self, rng):
        blocks = dense_blocks(rng, [2, 3])
        stacked = stack_matrices(blocks)
        assert stacked.shape == (5, DIM)
        assert stacked[2:].tobytes() == blocks[1].tobytes()

    def test_single_block_passthrough(self, rng):
        block = rng.standard_normal((4, DIM))
        assert stack_matrices([block]) is block

    def test_mixed_sparse_dense_rejected(self, rng):
        dense = rng.standard_normal((2, DIM))
        sparse = sp.random(2, DIM, density=0.5, format="csr")
        with pytest.raises(ValidationError, match="mix"):
            stack_matrices([dense, sparse])

    def test_empty_stack_rejected(self):
        with pytest.raises(ValidationError, match="at least one"):
            stack_matrices([])

    def test_split_roundtrip(self, rng):
        stacked = rng.standard_normal(10)
        parts = split_rows(stacked, [4, 6])
        assert np.array_equal(np.concatenate(parts), stacked)

    def test_split_count_mismatch(self, rng):
        with pytest.raises(ValidationError, match="cannot split"):
            split_rows(rng.standard_normal(5), [2, 2])

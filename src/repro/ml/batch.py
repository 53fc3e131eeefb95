"""Vectorized batch-predict paths: many feature blocks, one kernel.

Serving a request at a time pays the full Python/numpy dispatch
overhead per request — attribute checks, shape validation, a BLAS (or
sparse) kernel launch for a handful of rows. The micro-batching front
end (:mod:`repro.traffic`) amortizes that by stacking the feature
blocks of many queued requests and running the model's vectorized
``predict`` once, then splitting the result back per block.

The contract that makes this safe is **bit-identity**: every model in
:mod:`repro.ml` scores row ``i`` of a stacked matrix exactly as it
scores the same row alone, because every inference kernel here is
row-independent — sparse CSR row-dot, dense matrix-vector products,
per-row centroid distances, per-pair factor dots. ``predict_batch``
therefore returns, per input block, the byte-identical array the
per-block ``model.predict`` call would have produced (covered across
all model types by ``tests/ml/test_batch_predict.py``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ValidationError
from repro.ml.models.base import Matrix

#: One stacked input: either a feature matrix or a 1-D id array.
Stackable = Union[np.ndarray, sp.csr_matrix]


def matrix_values(
    matrix: Matrix, start: int = 0, stop: Optional[int] = None
) -> int:
    """Stored value count of rows ``[start, stop)`` of a feature
    matrix — nnz for sparse (read off ``indptr``), rows*cols for
    dense: the unit the cost model charges."""
    if sp.issparse(matrix):
        indptr = matrix.tocsr().indptr
        return int(indptr[-1 if stop is None else stop] - indptr[start])
    return int(np.asarray(matrix)[start:stop].size)


def stack_matrices(matrices: Sequence[Matrix]) -> Matrix:
    """Vertically stack feature blocks (dense or sparse, not mixed).

    The stacked matrix's row ``i`` is byte-identical to the source
    row, so any row-independent kernel over the stack reproduces the
    per-block results exactly.
    """
    if not matrices:
        raise ValidationError("stack_matrices needs at least one block")
    sparse_flags = {bool(sp.issparse(m)) for m in matrices}
    if len(sparse_flags) > 1:
        raise ValidationError(
            "cannot stack a mix of sparse and dense feature blocks"
        )
    if len(matrices) == 1:
        return matrices[0]
    if sparse_flags.pop():
        return sp.vstack(matrices, format="csr")
    return np.vstack(matrices)


def split_rows(
    stacked: np.ndarray, counts: Sequence[int]
) -> List[np.ndarray]:
    """Split a stacked 1-D result array back into per-block arrays."""
    total = int(sum(counts))
    if len(stacked) != total:
        raise ValidationError(
            f"cannot split {len(stacked)} rows into blocks of "
            f"{list(counts)} (sum {total})"
        )
    out: List[np.ndarray] = []
    start = 0
    for count in counts:
        out.append(stacked[start:start + int(count)])
        start += int(count)
    return out


def predict_batch(model, matrices: Sequence[Matrix]) -> List[np.ndarray]:
    """One vectorized ``model.predict`` over many feature blocks.

    Works for every matrix-in model (:class:`LinearSGDModel`
    subclasses, :class:`OnlineKMeans`); the predictions are split back
    so entry ``i`` is bit-identical to ``model.predict(matrices[i])``.
    """
    counts = [int(m.shape[0]) for m in matrices]
    predictions = model.predict(stack_matrices(matrices))
    return split_rows(np.asarray(predictions), counts)


def predict_batch_pairs(
    model, pairs: Sequence[Tuple[np.ndarray, np.ndarray]]
) -> List[np.ndarray]:
    """Batched variant for pair-scoring models (matrix factorization).

    ``pairs`` holds aligned ``(users, items)`` id arrays per request;
    the ids are concatenated, scored in one vectorized call, and split
    back per request.
    """
    if not pairs:
        raise ValidationError(
            "predict_batch_pairs needs at least one (users, items) pair"
        )
    counts = [len(users) for users, _ in pairs]
    users = np.concatenate([np.asarray(u) for u, _ in pairs])
    items = np.concatenate([np.asarray(i) for _, i in pairs])
    return split_rows(np.asarray(model.predict(users, items)), counts)

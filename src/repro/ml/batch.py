"""Vectorized batch-predict paths: many feature blocks, one kernel.

Serving a request at a time pays the full Python/numpy dispatch
overhead per request — attribute checks, shape validation, a BLAS (or
sparse) kernel launch for a handful of rows. Batched serving
(:meth:`~repro.serving.endpoint.ServingEndpoint.predict_requests`)
amortizes that by stacking the feature blocks of many queued requests
and running the model's vectorized ``predict`` once, then splitting
the result back per block.

The contract that makes this safe is **bit-identity**: every model in
:mod:`repro.ml` scores row ``i`` of a stacked matrix exactly as it
scores the same row alone, because every inference kernel here is
row-independent — sparse CSR row-dot, dense per-row reductions.
``predict_batch`` therefore returns, per input block, the
byte-identical array the per-block ``model.predict`` call would have
produced (covered across all model types by
``tests/ml/test_batch_predict.py``).

The other direction — one block, many row ranges — is :class:`Block`:
what an SGD step needs to know about a chunk and can know once.
"""

from __future__ import annotations

from functools import cached_property
from typing import List, Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ValidationError

Matrix = Union[np.ndarray, sp.csr_matrix]


def matrix_values(matrix: Matrix) -> int:
    """Stored value count of a feature matrix — nnz for sparse,
    rows*cols for dense: the unit the cost model charges."""
    return int(matrix.nnz if sp.issparse(matrix) else np.size(matrix))


class Block:
    """A feature matrix, and its targets when it is to be trained on,
    opened once for any number of row-range steps.

    What a range ``[start, stop)`` needs that is fixed for the whole
    matrix is established here — 2-D shape, ``float64`` values,
    ``len(targets) == rows``, and for CSR the ``indices``/``data``
    arrays (``None`` for dense), the row ``bounds`` and the ``owner``
    row of every stored entry (both on first use: a block only scored
    or stepped whole reads neither). It is not a matrix — no ``shape``,
    no ``__getitem__``: a range stays two integers beside it.
    """

    def __init__(
        self, matrix: Matrix, targets: Optional[np.ndarray] = None
    ) -> None:
        if matrix.ndim != 2:
            raise ValidationError(
                f"features must be 2-D, got shape {matrix.shape}"
            )
        self.rows, self.width = matrix.shape
        if sp.issparse(matrix):
            matrix = matrix.tocsr()  # a CSR returns itself
            self.indices, self.data = matrix.indices, matrix.data
        else:
            matrix = np.asarray(matrix, dtype=np.float64)
            self.indices = self.data = None
        self.matrix = matrix
        if targets is not None:
            targets = np.asarray(targets, dtype=np.float64)
            if targets.shape != (self.rows,):
                raise ValidationError(
                    f"features have {self.rows} rows, targets have "
                    f"shape {targets.shape}"
                )
        self.targets = targets

    @cached_property
    def bounds(self) -> List[int]:
        """CSR ``indptr`` as Python ints: row ``i`` stores entries
        ``[bounds[i], bounds[i + 1])``."""
        return self.matrix.indptr.tolist()

    @cached_property
    def owner(self) -> np.ndarray:
        """Row number of every stored CSR entry."""
        return np.repeat(np.arange(self.rows), np.diff(self.matrix.indptr))

    def num_values(self, start: int = 0, stop: Optional[int] = None) -> int:
        """Stored values of rows ``[start, stop)`` — what the cost
        model charges and the ``engine.train_step`` span reports."""
        stop = self.rows if stop is None else stop
        if self.indices is None:
            return (stop - start) * self.width
        return int(self.matrix.indptr[stop] - self.matrix.indptr[start])

    def range_values(
        self, size: int, start: int = 0, stop: Optional[int] = None
    ) -> List[int]:
        """:meth:`num_values` of each consecutive ``size``-row range of
        rows ``[start, stop)``."""
        rows = self.rows if stop is None else stop
        starts = range(start, rows, size)
        if self.indices is None:
            return [(min(i + size, rows) - i) * self.width for i in starts]
        bounds = self.bounds
        return [bounds[min(i + size, rows)] - bounds[i] for i in starts]


def open_block(features, targets: Optional[np.ndarray] = None) -> Block:
    """``features`` itself when the caller opened it already, else a
    block over the bare ``(features, targets)``, for this one step."""
    if isinstance(features, Block):
        return features
    return Block(features, targets)


def stack_matrices(matrices: Sequence[Matrix]) -> Matrix:
    """Vertically stack feature blocks (dense or sparse, not mixed).

    The stacked matrix's row ``i`` is byte-identical to the source
    row, so any row-independent kernel over the stack reproduces the
    per-block results exactly. Sparse blocks stack in one pass to what
    ``sp.vstack(format="csr")`` builds: the same arrays (``indptr``
    from each block's row ends, shifted by the entries above it) in
    scipy's index dtype, through the same constructor.
    """
    if not matrices:
        raise ValidationError("stack_matrices needs at least one block")
    if {type(m) for m in matrices} != {sp.csr_matrix}:
        sparse_flags = {bool(sp.issparse(m)) for m in matrices}
        if len(sparse_flags) > 1:
            raise ValidationError(
                "cannot stack a mix of sparse and dense feature blocks"
            )
        if not sparse_flags.pop():
            return matrices[0] if len(matrices) == 1 else np.vstack(matrices)
        matrices = [m.tocsr() for m in matrices]
    widths = sorted({m.shape[1] for m in matrices})
    if len(widths) > 1:
        raise ValidationError(f"cannot stack sparse blocks of widths {widths}")
    data = np.concatenate([m.data for m in matrices])
    ends = np.concatenate([m.indptr[1:] for m in matrices])
    narrow = np.can_cast(ends.dtype, np.int32)  # all indptrs, promoted
    narrow = narrow and max(data.size, widths[0]) < 2**31
    dtype = np.int32 if narrow else np.int64
    indices = np.concatenate([m.indices for m in matrices], dtype=dtype)
    sizes = [len(m.data) for m in matrices]  # nnz: scipy prunes to it
    rows = [len(m.indptr) - 1 for m in matrices]
    shifts = np.repeat(np.cumsum([0] + sizes[:-1]), rows)
    indptr = np.zeros(len(ends) + 1, dtype=dtype)
    np.add(ends, shifts, out=indptr[1:], casting="unsafe")
    return sp.csr_matrix((data, indices, indptr), (len(ends), widths[0]))


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
    subclasses); the predictions are split back so entry ``i`` is
    bit-identical to ``model.predict(matrices[i])``.
    """
    counts = [int(m.shape[0]) for m in matrices]
    predictions = model.predict(stack_matrices(matrices))
    return split_rows(np.asarray(predictions), counts)

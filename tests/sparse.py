"""The one bridge between ``{index: value}`` dicts and ``SparseRows``.

Tests state sparse rows as dicts because that is how one reads them;
the pipeline only ever sees the CSR batch.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.pipeline.component import SparseRows


def sparse_rows(
    rows: Sequence[Dict[int, float]],
    labels: Optional[Sequence[float]] = None,
) -> SparseRows:
    """A batch holding ``rows`` (entries in dict order); labels default
    to 1.0."""
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(row) for row in rows], out=indptr[1:])
    return SparseRows(
        labels=np.asarray(
            labels if labels is not None else np.ones(len(rows)),
            dtype=np.float64,
        ),
        indptr=indptr,
        indices=np.array(
            [index for row in rows for index in row], dtype=np.int64
        ),
        data=np.array(
            [value for row in rows for value in row.values()],
            dtype=np.float64,
        ),
    )


def entries(
    rows: Sequence[Dict[int, float]],
) -> Tuple[np.ndarray, np.ndarray]:
    """The flat ``(indices, values)`` of ``rows`` in stream order —
    what ``SparseMoments.update`` folds."""
    batch = sparse_rows(rows)
    return batch.indices, batch.data


def row_dict(batch: SparseRows, row: int) -> Dict[int, float]:
    """Row ``row`` of ``batch`` read back as ``{index: value}``."""
    span = slice(batch.indptr[row], batch.indptr[row + 1])
    return dict(
        zip(batch.indices[span].tolist(), batch.data[span].tolist())
    )


def row_dicts(batch: SparseRows) -> list:
    """Every row of ``batch`` as a dict, in order."""
    return [row_dict(batch, row) for row in range(batch.num_rows)]

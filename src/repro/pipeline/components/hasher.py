"""Feature hashing (the hashing trick).

Terminal component of the URL pipeline: maps a
:class:`~repro.pipeline.component.SparseRows` batch into a fixed-width
:class:`scipy.sparse.csr_matrix` by hashing each raw feature index into
one of ``num_features`` buckets. Signed hashing
(sign drawn from a hash bit) keeps collisions unbiased in expectation.

Hashing is stateless and deterministic — independent of
``PYTHONHASHSEED`` — via CRC-32, so a model trained before a restart
keeps meaning after it. §3.2.1 of the paper notes that hashing output
must be stored sparse to preserve the O(p) materialization bound; this
component emits CSR accordingly.
"""

from __future__ import annotations

import zlib
from typing import Tuple

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ValidationError
from repro.pipeline.component import (
    Batch,
    ComponentKind,
    Features,
    StatelessComponent,
)
from repro.pipeline.statistics import absorb, locate


def hash_index(index: int, num_features: int) -> Tuple[int, float]:
    """Map a feature index to ``(bucket, sign)`` deterministically.

    The bucket comes from CRC-32 of the decimal index modulo
    ``num_features``; the sign from the hash's top bit.
    """
    digest = zlib.crc32(b"%d" % index)
    bucket = digest % num_features
    sign = 1.0 if digest & 0x80000000 == 0 else -1.0
    return bucket, sign


def _empty_memo() -> Tuple[np.ndarray, np.ndarray]:
    """Sorted keys and their ``(bucket, sign)`` columns: none yet."""
    return np.empty(0, dtype=np.int64), np.empty((2, 0), dtype=np.int64)


class FeatureHasher(StatelessComponent):
    """Hash sparse rows into a fixed-width CSR matrix + labels.

    :func:`hash_index` runs once per *distinct* index: the instance
    memoizes ``index -> (bucket, sign)`` in sorted parallel arrays. The
    memo is derived data, not state — pickles and fingerprints see it
    empty, so a hasher is the same component however much of the index
    space it has met.

    Parameters
    ----------
    num_features:
        Output dimensionality (buckets). Powers of two are customary
        but not required.
    signed:
        Use signed hashing (recommended); unsigned accumulates positive
        collision bias.
    """

    kind = ComponentKind.FEATURE_EXTRACTION

    def __init__(
        self,
        num_features: int,
        signed: bool = True,
        name: str | None = None,
    ) -> None:
        super().__init__(name)
        if num_features < 1:
            raise ValidationError(
                f"num_features must be >= 1, got {num_features}"
            )
        self.num_features = int(num_features)
        self.signed = signed
        self._keys, self._memo = _empty_memo()

    def __getstate__(self) -> dict:
        keys, memo = _empty_memo()
        return {**self.__dict__, "_keys": keys, "_memo": memo}

    def _hashed(self, indices: np.ndarray) -> np.ndarray:
        """Bucket and sign (two rows) of every index, from the memo."""
        positions, found = locate(self._keys, indices)
        if not found.all():
            new = np.unique(indices[~found])
            hashed = [
                hash_index(index, self.num_features)
                for index in new.tolist()
            ]
            self._keys, self._memo = absorb(
                self._keys,
                self._memo,
                new,
                np.array(hashed, dtype=np.int64).T,
            )
            positions += new.searchsorted(indices)
        return self._memo.take(positions, axis=1)

    def transform(self, batch: Batch) -> Features:
        rows = self._require_rows(batch)
        width = self.num_features
        buckets, signs = self._hashed(rows.indices)
        values = rows.data * signs if self.signed else rows.data
        # One stored value per (row, bucket) cell, ascending, so CSR
        # stays canonical under collisions; the sort is stable and
        # bincount adds from 0.0, so a cell sums its entries in
        # stored-entry order.
        owner = np.repeat(np.arange(rows.num_rows), np.diff(rows.indptr))
        cell = owner * width + buckets
        order = cell.argsort(kind="stable")
        cell = cell.take(order)
        opens = np.ones(len(cell), dtype=bool)
        np.not_equal(cell[1:], cell[:-1], out=opens[1:])
        cells = cell[opens]
        sums = np.bincount(
            opens.cumsum() - 1,
            weights=values.take(order),
            minlength=len(cells),
        )
        matrix = sp.csr_matrix(
            (
                # bincount of nothing is int64, weights or not.
                sums.astype(np.float64, copy=False),
                cells % width,
                cells.searchsorted(
                    np.arange(rows.num_rows + 1) * width
                ),
            ),
            shape=(rows.num_rows, width),
        )
        return Features(matrix=matrix, labels=rows.labels)

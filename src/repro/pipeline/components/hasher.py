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
from collections import namedtuple
from typing import Optional, Tuple

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


#: All of hashing a batch that its ``indptr`` and ``indices`` (kept as
#: the key) decide: every entry's sign as a float, the stable ``order``
#: of entries by (row, bucket) cell, the output cell (``groups``) of
#: each ordered entry, the output CSR ``columns`` and row ``starts``.
_Plan = namedtuple("_Plan", "indptr indices signs order groups columns starts")


class FeatureHasher(StatelessComponent):
    """Hash sparse rows into a fixed-width CSR matrix + labels.

    :func:`hash_index` runs once per *distinct* index: the instance
    memoizes ``index -> (bucket, sign)`` in sorted parallel arrays. The
    memo is derived data, not state — pickles and fingerprints see it
    empty, so a hasher is the same component however much of the index
    space it has met.

    Every call plans, then applies. Imputer and scaler pass a batch's
    index arrays on untouched, so the last plan is kept for as long as
    the same two objects arrive — provided both are frozen, as the
    parser emits them: identity says nothing about an array that can
    still be written. Pickles and fingerprints see no plan.

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

    #: The last frozen batch's plan; unpickled instances start without.
    _plan: Optional[_Plan] = None

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
        state = {**self.__dict__, "_keys": keys, "_memo": memo}
        state.pop("_plan", None)
        return state

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
        plan = self._plan_for(rows.indptr, rows.indices)
        values = rows.data * plan.signs if self.signed else rows.data
        sums = np.bincount(
            plan.groups,
            weights=values.take(plan.order),
            minlength=len(plan.columns),
        )
        # bincount of nothing is int64, weights or not.
        sums = sums.astype(np.float64, copy=False)
        matrix = sp.csr_matrix(
            (sums, plan.columns, plan.starts),
            shape=(rows.num_rows, self.num_features),
        )
        return Features(matrix=matrix, labels=rows.labels)

    def _plan_for(self, indptr: np.ndarray, indices: np.ndarray) -> _Plan:
        plan = self._plan
        if plan and plan.indptr is indptr and plan.indices is indices:
            return plan
        width = self.num_features
        num_rows = len(indptr) - 1
        buckets, signs = self._hashed(indices)
        # One stored value per (row, bucket) cell, ascending, so CSR
        # stays canonical under collisions; the sort is stable and
        # bincount adds from 0.0, so a cell sums its entries in
        # stored-entry order.
        owner = np.repeat(np.arange(num_rows), np.diff(indptr))
        cell = owner * width + buckets
        order = cell.argsort(kind="stable")
        cell = cell.take(order)
        opens = np.ones(len(cell), dtype=bool)
        np.not_equal(cell[1:], cell[:-1], out=opens[1:])
        cells = cell[opens]
        plan = _Plan(
            indptr,
            indices,
            signs.astype(np.float64),
            order,
            opens.cumsum() - 1,
            cells % width,
            cells.searchsorted(np.arange(num_rows + 1) * width),
        )
        # Identity is a key only while neither array can change.
        if not (indptr.flags.writeable or indices.flags.writeable):
            self._plan = plan
        return plan

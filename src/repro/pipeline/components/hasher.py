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

import copy
import zlib
from collections import namedtuple
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
from repro.pipeline.statistics import FrozenMemo, find, grow, sorted_view


def hash_index(index: int, num_features: int) -> Tuple[int, float]:
    """Map a feature index to ``(bucket, sign)`` deterministically.

    The bucket comes from CRC-32 of the decimal index modulo
    ``num_features``; the sign from the hash's top bit.
    """
    digest = zlib.crc32(b"%d" % index)
    bucket = digest % num_features
    sign = 1.0 if digest & 0x80000000 == 0 else -1.0
    return bucket, sign


#: All of hashing a batch that its ``indptr`` and ``indices`` decide,
#: in compact dtypes: every entry's sign (``int8``), the stable
#: ``order`` of entries by (row, bucket) cell and the output cell
#: (``groups``) of each ordered entry (the smallest signed type that
#: indexes the batch), the output CSR ``columns`` and row ``starts``
#: (``int32``, what scipy makes of them anyway, unless too wide). The
#: plan's first apply has scipy check ``columns`` and ``starts``, then
#: freezes them: a plan whose index arrays are read-only is a checked
#: structure, and nothing can write into it since.
_Plan = namedtuple("_Plan", "signs order groups columns starts")


class FeatureHasher(StatelessComponent):
    """Hash sparse rows into a fixed-width CSR matrix + labels.

    :func:`hash_index` runs once per *distinct* index: the instance
    memoizes ``index -> (bucket, sign)`` in parallel arrays, one slot
    per index, placed through a
    :func:`~repro.pipeline.statistics.sorted_view` as the statistics
    place theirs. The memo is derived data, not state — pickles and
    fingerprints see it empty, so a hasher is the same component
    however much of the index space it has met.

    Every call plans, then applies. Imputer and scaler pass a batch's
    index arrays on untouched, so a plan is kept in the weak-identity
    memo the statistics keep their slot arrays in
    (:class:`~repro.pipeline.statistics.FrozenMemo`): keyed by the two
    frozen arrays the parser emits, it dies with whatever holds the
    parsed rows — the step's prefix memo, or a re-read raw chunk's.
    Pickles, fingerprints and deep copies see no plan.

    scipy checks a plan's structure once. A plan's first apply goes
    through :class:`scipy.sparse.csr_matrix`; every later one (the
    online step's second pass, a re-materialization, a re-read of a
    kept parse) copies a *shell* — an output scipy has checked, of the
    same shape and index dtype, its arrays dropped — and attaches
    fresh copies of the plan's index arrays and the new values. The
    shells, one per ``(shape, index dtype)``, live here rather than on
    the plans, so a kept plan holds no matrix; pickles and
    fingerprints see none. Either way the output is the constructor's,
    down to its ``pickle.dumps`` bytes.

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
        #: Keys, and their ``(bucket, sign)`` columns, in slot order.
        self._keys = np.empty(0, dtype=np.int64)
        self._memo = np.empty((2, 0), dtype=np.int64)
        self.__setstate__({})

    def __getstate__(self) -> dict:
        empty = {"_keys": self._keys[:0], "_memo": self._memo[:, :0]}
        state = {**self.__dict__, **empty}
        del state["_view"], state["_plans"], state["_shells"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._view = sorted_view(self._keys)
        self._plans = FrozenMemo()
        self._shells: dict = {}

    def _hashed(self, indices: np.ndarray) -> np.ndarray:
        """Bucket and sign (two rows) of every index, from the memo."""
        slots = find(self._view, indices)
        unseen = slots < 0
        if unseen.any():
            new = np.unique(indices[unseen])
            hashed = [
                hash_index(index, self.num_features)
                for index in new.tolist()
            ]
            at = new.searchsorted(indices[unseen])
            slots[unseen] = len(self._keys) + at
            self._keys, self._memo, self._view = grow(
                self._keys, self._memo, new, np.array(hashed, dtype=np.int64).T
            )
        return self._memo.take(slots, axis=1)

    def transform(self, batch: Batch) -> Features:
        rows = self._require_rows(batch)
        plan = self._plans.derive(self._planned, rows.indptr, rows.indices)
        values = rows.data * plan.signs if self.signed else rows.data
        sums = np.bincount(
            plan.groups,
            weights=values.take(plan.order),
            minlength=len(plan.columns),
        )
        # bincount of nothing is int64, weights or not.
        sums = sums.astype(np.float64, copy=False)
        matrix = self._matrix(plan, sums, rows.num_rows)
        return Features(matrix=matrix, labels=rows.labels)

    def _matrix(
        self, plan: _Plan, sums: np.ndarray, num_rows: int
    ) -> sp.csr_matrix:
        """The CSR of ``plan``'s structure holding ``sums``; scipy checks
        the structure on the plan's first apply only."""
        # A new shape tuple, as the constructor makes: outputs sharing
        # one would pickle together (a checkpoint's pack) to other bytes.
        shape = num_rows, self.num_features
        key = shape, plan.columns.dtype
        shell = None if plan.starts.flags.writeable else self._shells.get(key)
        if (
            shell is not None
            and len(sums) == len(plan.columns)
            and sums.dtype == np.float64
        ):
            # What copy.copy(shell) does, without its dispatch: scipy's
            # attributes in scipy's order, then fresh arrays.
            matrix = type(shell).__new__(type(shell))
            vars(matrix).update(
                vars(shell),
                _shape=shape,
                indices=plan.columns.copy(),
                indptr=plan.starts.copy(),
                data=sums,
            )
            return matrix
        # Copies: scipy keeps int32 index arrays as they are, and an
        # output matrix must not share memory with a kept plan.
        matrix = sp.csr_matrix(
            (sums, plan.columns.copy(), plan.starts.copy()), shape=shape
        )
        plan.columns.flags.writeable = plan.starts.flags.writeable = False
        if key not in self._shells:
            shell = copy.copy(matrix)
            shell.indices = shell.indptr = shell.data = None
            self._shells[key] = shell
        return matrix

    def _planned(self, indptr: np.ndarray, indices: np.ndarray) -> _Plan:
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
        # The smallest signed type holding 0 .. len(cell) - 1.
        position = np.min_scalar_type(-max(len(cell), 1))
        wide = max(num_rows, width, len(cells)) > np.iinfo(np.int32).max
        csr = np.int64 if wide else np.int32
        return _Plan(
            signs.astype(np.int8),
            order.astype(position),
            (opens.cumsum() - 1).astype(position),
            (cells % width).astype(csr),
            cells.searchsorted(np.arange(num_rows + 1) * width).astype(csr),
        )

"""Incremental (online) statistics.

§3.1 of the paper restricts online statistics computation to statistics
that can be updated incrementally — mean, standard deviation, hash
tables — and this module provides exactly those primitives:

* :class:`RunningMoments` — per-coordinate mean/variance via a batched
  Welford / Chan et al. update, NaN-aware so the missing-value imputer
  can learn means from incomplete data.
* :class:`RunningMinMax` — per-coordinate extrema.
* :class:`SparseMoments` — mean/variance keyed by an unbounded feature
  index (the "hash table" statistic), for the sparse imputer/scaler.

All three support ``merge`` so statistics computed on separate chunks
can be combined, mirroring distributed execution.
"""

from __future__ import annotations

import math
import weakref
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.data.table import is_frozen
from repro.exceptions import NotFittedError, ValidationError


class RunningMoments:
    """Per-coordinate streaming mean and variance.

    Uses the numerically stable pairwise/batched form of Welford's
    algorithm (Chan, Golub & LeVeque): each :meth:`update` folds a whole
    batch into the running moments in O(batch) without catastrophic
    cancellation. ``NaN`` observations are skipped per coordinate, so
    every coordinate keeps its own observation count.

    Parameters
    ----------
    dim:
        Number of coordinates. ``None`` (default) infers it from the
        first batch.
    """

    def __init__(self, dim: Optional[int] = None) -> None:
        if dim is not None and dim < 1:
            raise ValidationError(f"dim must be >= 1, got {dim}")
        self._dim = dim
        self._count: Optional[np.ndarray] = None
        self._mean: Optional[np.ndarray] = None
        self._m2: Optional[np.ndarray] = None
        if dim is not None:
            self._allocate(dim)

    def _allocate(self, dim: int) -> None:
        self._dim = dim
        self._count = np.zeros(dim, dtype=np.float64)
        self._mean = np.zeros(dim, dtype=np.float64)
        self._m2 = np.zeros(dim, dtype=np.float64)

    # ------------------------------------------------------------------
    @property
    def dim(self) -> Optional[int]:
        return self._dim

    @property
    def count(self) -> np.ndarray:
        """Per-coordinate number of non-NaN observations."""
        self._require_seen()
        return self._count.copy()

    @property
    def total_count(self) -> int:
        """Largest per-coordinate count (rows seen, NaN or not aside)."""
        if self._count is None:
            return 0
        return int(self._count.max()) if self._count.size else 0

    def update(self, batch: np.ndarray) -> None:
        """Fold a batch of observations into the moments.

        ``batch`` is ``(n,)`` for one coordinate or ``(n, dim)``.
        """
        array = np.asarray(batch, dtype=np.float64)
        if array.ndim == 1:
            array = array[:, None]
        if array.ndim != 2:
            raise ValidationError(
                f"batch must be 1-D or 2-D, got shape {array.shape}"
            )
        if self._count is None:
            self._allocate(array.shape[1])
        elif array.shape[1] != self._dim:
            raise ValidationError(
                f"batch has {array.shape[1]} coordinates, "
                f"expected {self._dim}"
            )
        if array.shape[0] == 0:
            return
        valid = ~np.isnan(array)
        batch_count = valid.sum(axis=0).astype(np.float64)
        filled = np.where(valid, array, 0.0)
        safe_count = np.maximum(batch_count, 1.0)
        batch_mean = filled.sum(axis=0) / safe_count
        deviations = np.where(valid, array - batch_mean, 0.0)
        batch_m2 = np.sum(deviations * deviations, axis=0)
        self._merge_moments(batch_count, batch_mean, batch_m2)

    def _merge_moments(
        self,
        other_count: np.ndarray,
        other_mean: np.ndarray,
        other_m2: np.ndarray,
    ) -> None:
        new_count = self._count + other_count
        # Coordinates with no new observations keep their state; guard
        # the divisions with a safe denominator.
        safe_total = np.maximum(new_count, 1.0)
        delta = other_mean - self._mean
        self._mean = np.where(
            other_count > 0,
            self._mean + delta * (other_count / safe_total),
            self._mean,
        )
        self._m2 = np.where(
            other_count > 0,
            self._m2
            + other_m2
            + delta * delta * (self._count * other_count / safe_total),
            self._m2,
        )
        self._count = new_count

    def merge(self, other: "RunningMoments") -> None:
        """Fold another moments accumulator into this one."""
        if other._count is None:
            return
        if self._count is None:
            self._allocate(other._dim)
        if self._dim != other._dim:
            raise ValidationError(
                f"cannot merge moments of dim {other._dim} into "
                f"dim {self._dim}"
            )
        self._merge_moments(
            other._count.copy(), other._mean.copy(), other._m2.copy()
        )

    # ------------------------------------------------------------------
    def mean(self) -> np.ndarray:
        """Per-coordinate mean; 0 for coordinates never observed."""
        self._require_seen()
        return np.where(self._count > 0, self._mean, 0.0)

    def variance(self) -> np.ndarray:
        """Per-coordinate population variance (ddof=0)."""
        self._require_seen()
        safe = np.maximum(self._count, 1.0)
        return np.where(self._count > 0, self._m2 / safe, 0.0)

    def std(self) -> np.ndarray:
        """Per-coordinate population standard deviation."""
        return np.sqrt(self.variance())

    def _require_seen(self) -> None:
        if self._count is None:
            raise NotFittedError(
                "RunningMoments has not observed any data"
            )

    def __repr__(self) -> str:
        if self._count is None:
            return "RunningMoments(unseen)"
        return (
            f"RunningMoments(dim={self._dim}, "
            f"rows~{self.total_count})"
        )


class RunningMinMax:
    """Per-coordinate streaming minimum and maximum (NaN-aware)."""

    def __init__(self, dim: Optional[int] = None) -> None:
        if dim is not None and dim < 1:
            raise ValidationError(f"dim must be >= 1, got {dim}")
        self._dim = dim
        self._min: Optional[np.ndarray] = None
        self._max: Optional[np.ndarray] = None
        if dim is not None:
            self._allocate(dim)

    def _allocate(self, dim: int) -> None:
        self._dim = dim
        self._min = np.full(dim, np.inf)
        self._max = np.full(dim, -np.inf)

    @property
    def dim(self) -> Optional[int]:
        return self._dim

    def update(self, batch: np.ndarray) -> None:
        array = np.asarray(batch, dtype=np.float64)
        if array.ndim == 1:
            array = array[:, None]
        if array.ndim != 2:
            raise ValidationError(
                f"batch must be 1-D or 2-D, got shape {array.shape}"
            )
        if self._min is None:
            self._allocate(array.shape[1])
        elif array.shape[1] != self._dim:
            raise ValidationError(
                f"batch has {array.shape[1]} coordinates, "
                f"expected {self._dim}"
            )
        if array.shape[0] == 0:
            return
        with np.errstate(invalid="ignore"):
            self._min = np.fmin(self._min, np.nanmin(array, axis=0))
            self._max = np.fmax(self._max, np.nanmax(array, axis=0))

    def merge(self, other: "RunningMinMax") -> None:
        if other._min is None:
            return
        if self._min is None:
            self._allocate(other._dim)
        if self._dim != other._dim:
            raise ValidationError(
                f"cannot merge min-max of dim {other._dim} into "
                f"dim {self._dim}"
            )
        self._min = np.fmin(self._min, other._min)
        self._max = np.fmax(self._max, other._max)

    def minimum(self) -> np.ndarray:
        self._require_seen()
        return self._min.copy()

    def maximum(self) -> np.ndarray:
        self._require_seen()
        return self._max.copy()

    def span(self) -> np.ndarray:
        """``max - min`` per coordinate (0 where nothing was observed)."""
        self._require_seen()
        span = self._max - self._min
        return np.where(np.isfinite(span), span, 0.0)

    def _require_seen(self) -> None:
        if self._min is None:
            raise NotFittedError("RunningMinMax has not observed any data")


def sorted_view(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``keys`` ascending and the slot (position in ``keys``) of each,
    in ``int32`` while that holds every slot."""
    order = keys.argsort(kind="stable")
    wide = len(keys) > np.iinfo(np.int32).max
    return keys.take(order), order.astype(np.int64 if wide else np.int32)


def grow(
    keys: np.ndarray, table: np.ndarray, new_keys: np.ndarray, columns
) -> tuple:
    """``keys`` and its ``(rows, len(keys))`` table with ``new_keys``
    (none present yet) at the next slots, and their :func:`sorted_view`."""
    keys = np.concatenate((keys, new_keys))
    return keys, np.concatenate((table, columns), axis=1), sorted_view(keys)


def find(
    view: Tuple[np.ndarray, np.ndarray], queries: np.ndarray
) -> np.ndarray:
    """The slot of every query in a :func:`sorted_view`, -1 if absent."""
    keys, slots = view
    if not len(keys):
        return np.full(len(queries), -1, dtype=slots.dtype)
    at = keys.searchsorted(queries)
    hit = keys.take(at, mode="clip") == queries
    return np.where(hit, slots.take(at, mode="clip"), -1)


class FrozenMemo(dict):
    """``(id(array), ...) -> (weak references, value)``: a value derived
    from frozen arrays (:func:`~repro.data.table.is_frozen`; identity
    says nothing about one that can be written), kept until any of the
    arrays is freed. The references' callbacks drop the entry before an
    id can be reused, so a key that is present names live arrays.
    Owners leave the memo out of pickles and copies.
    """

    def derive(self, make: Callable, *arrays: np.ndarray):
        """``make(*arrays)``, kept from an earlier call if there was one."""
        key = tuple(map(id, arrays))
        kept = self.get(key)
        if kept is not None:
            return kept[1]
        value = make(*arrays)
        if all(map(is_frozen, arrays)):
            self[key] = [
                weakref.ref(array, lambda _, key=key: self.pop(key, None))
                for array in arrays
            ], value
        return value


class SparseMoments:
    """Streaming mean/variance keyed by feature index.

    Backs the sparse (URL-style) imputer and scaler: the index space is
    unbounded and grows over time, so memory follows the *distinct*
    indices observed — never the largest index. A key gets a *slot* the
    first time it is seen: ``_keys`` and the ``(count, mean, M2)`` rows
    of ``_table`` are in slot order and only ever appended to, and a
    :func:`sorted_view` places queries. Each index follows the scalar
    Welford recurrence in stream order.

    Because slots never move, the slot array of a frozen ``indices``
    array is kept (:class:`FrozenMemo`), and the mean and std of every
    slot are computed at most once per update: a re-read chunk is then
    one ``take``. Pickles (and so checkpoints and fingerprints) hold
    the keys ascending with their columns, so equal statistics are
    equal state however they were accumulated.
    """

    def __init__(self) -> None:
        self.__setstate__(
            {"_keys": np.empty(0, dtype=np.int64), "_table": np.empty((3, 0))}
        )

    def __getstate__(self) -> dict:
        keys, slots = self._view
        return {"_keys": keys, "_table": self._table.take(slots, axis=1)}

    def __setstate__(self, state: dict) -> None:
        self._keys, self._table = state["_keys"], state["_table"]
        self._view = sorted_view(self._keys)
        self._tables: Dict[tuple, np.ndarray] = {}
        self._kept = FrozenMemo()

    def update(self, indices: np.ndarray, values: np.ndarray) -> None:
        """Fold aligned ``(index, value)`` entries, in stream order.

        NaN values are skipped (they are what the imputer must fill).
        Welford runs in *rounds*: the k-th occurrence of every index
        in the batch is one elementwise step, so each index sees the
        scalar recurrence applied to its values in the order given.
        """
        observed = values == values
        if not observed.all():
            indices, values = indices[observed], values[observed]
        total = len(indices)
        if total == 0:
            return
        # Group the entries by index; the sort is stable, so a group
        # lists its values in stream order.
        order = indices.argsort(kind="stable")
        indices, values = indices.take(order), values.take(order)
        edge = np.empty(total + 1, dtype=bool)
        edge[0] = edge[-1] = True
        np.not_equal(indices[1:], indices[:-1], out=edge[1:-1])
        edges = edge.nonzero()[0]
        starts = edges[:-1]
        sizes = edges[1:] - starts
        distinct = indices.take(starts)
        slots = find(self._view, distinct)
        new = slots < 0
        if new.any():
            # An unseen index starts at (1, first value, 0) — not at
            # the zero state plus one step, which turns -0.0 and inf
            # into other bits — and that occurrence is consumed.
            fresh = np.zeros((3, np.count_nonzero(new)))
            fresh[0] = 1.0
            fresh[1] = values.take(starts[new])
            slots[new] = len(self._keys) + np.arange(len(fresh[0]))
            self._keys, self._table, self._view = grow(
                self._keys, self._table, distinct[new], fresh
            )
            starts = starts + new
            sizes -= new
        # Largest groups first, so round k touches a prefix of them.
        by_size = sizes.argsort()[::-1]
        starts, at = starts.take(by_size), slots.take(by_size)
        widths = len(sizes) - np.bincount(sizes).cumsum()[:-1]
        block = self._table.take(at, axis=1)
        count, mean, m2 = block
        with np.errstate(all="ignore"):
            for k, width in enumerate(widths.tolist()):
                value = values.take(starts[:width] + k)
                running = mean[:width]
                count[:width] += 1.0
                delta = value - running
                running += delta / count[:width]
                m2[:width] += delta * (value - running)
        self._table[:, at] = block
        self._tables = {}

    def merge(self, other: "SparseMoments") -> None:
        """Fold another accumulator into this one (Chan merge per key)."""
        slots = find(self._view, other._keys)
        found = slots >= 0
        at = slots[found]
        count, mean, m2 = self._table.take(at, axis=1)
        o_count, o_mean, o_m2 = other._table[:, found]
        total = count + o_count
        with np.errstate(all="ignore"):
            delta = o_mean - mean
            self._table[:, at] = (
                total,
                mean + delta * o_count / total,
                m2 + o_m2 + delta * delta * count * o_count / total,
            )
        new = ~found
        self._keys, self._table, self._view = grow(
            self._keys, self._table, other._keys[new], other._table[:, new]
        )
        self._tables = {}

    def _slots(self, indices: np.ndarray) -> np.ndarray:
        """The slot of every listed index (-1 if unseen), kept for a
        frozen array; once there are new keys, its -1 entries alone
        are looked up again."""
        kept = self._kept.derive(self._place, indices)
        slots, unseen, size = kept
        if len(unseen) and size < len(self._keys):
            found = find(self._view, indices.take(unseen))
            slots = kept[0] = slots.astype(found.dtype, copy=False)
            slots[unseen] = found
            kept[1:] = unseen[found < 0], len(self._keys)
        return slots

    def _place(self, indices: np.ndarray) -> list:
        """``[slots, the entries still -1, the key count then]``."""
        slots = find(self._view, indices)
        return [slots, (slots < 0).nonzero()[0], len(self._keys)]

    def _per_slot(self, name: str, default: float) -> np.ndarray:
        """``name`` ("means" or "stds") of every slot as of the last
        update, then ``default``: what slot -1 reads. Kept by the sign
        of ``default`` too, since ``0.0 == -0.0``."""
        key = name, default, math.copysign(1.0, default)
        if key not in self._tables:
            if name == "means":
                known = self._table[1]
            else:
                count, __, m2 = self._table
                with np.errstate(all="ignore"):
                    variance = m2 / count
                    known = np.sqrt(variance)
                known[variance <= 0.0] = default
            self._tables[key] = np.append(known, default)
        return self._tables[key]

    def means(self, indices: np.ndarray, default: float = 0.0) -> np.ndarray:
        """Mean of every listed index (``default`` if never observed)."""
        return self._per_slot("means", default).take(self._slots(indices))

    def stds(self, indices: np.ndarray, default: float = 1.0) -> np.ndarray:
        """Population std of every listed index (``default`` if unseen
        or zero)."""
        return self._per_slot("stds", default).take(self._slots(indices))

    def mean(self, index: int, default: float = 0.0) -> float:
        """Mean of feature ``index`` (``default`` if never observed)."""
        return float(self.means(np.array([index]), default)[0])

    def std(self, index: int, default: float = 1.0) -> float:
        """Population std of ``index`` (``default`` if unseen or zero)."""
        return float(self.stds(np.array([index]), default)[0])

    def count(self, index: int) -> int:
        slot = find(self._view, np.array([index]))[0]
        return int(self._table[0, slot]) if slot >= 0 else 0

    def indices(self) -> List[int]:
        """All feature indices observed so far, ascending."""
        return self._view[0].tolist()

    def __len__(self) -> int:
        return len(self._keys)

    def __repr__(self) -> str:
        return f"SparseMoments({len(self)} indices)"

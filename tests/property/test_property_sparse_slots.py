"""Generated property: ``SparseMoments`` with slots that never move is
the sorted-key ``SparseMoments`` it replaced, bit for bit.

The reference below is that class, kept verbatim but for its name: keys
kept sorted, every new key shifting the columns after it, and each
lookup a ``searchsorted``. The new layout appends a key's column the
first time the key is seen, keeps the slot array of a frozen query
array, and reads means and stds from tables computed once per update.
None of that may show: over generated streams, ``means``, ``stds``
(at several defaults), ``count``, ``indices()`` and the pickle bytes
equal the reference's after every chunk, compared as bytes.

The streams have keys that first arrive in the middle of a chunk, keys
whose every value is NaN, and ``-0.0``, ``inf`` and ``-inf`` values;
they are cut at a random chunk and ``merge``d, and pickled and restored
mid-growth. The reference's pickle is written as the shipped class
wrote it (``copyreg.__newobj__`` of ``SparseMoments`` and its
``__dict__``), so equal bytes mean a checkpoint does not move. Frozen
query arrays are asked again after new keys arrive: their kept slots,
with the -1 entries looked up again, read what a fresh lookup reads.

Everything is drawn from a ``repro.utils.rng`` seed; a failure names
the seed and ``pytest tests/property/test_property_sparse_slots.py -k
"seed<N>"`` replays it.
"""

import copyreg
import io
import pickle
from typing import List, Tuple

import numpy as np
import pytest

from repro.pipeline.statistics import SparseMoments
from repro.utils.rng import ensure_rng

SEEDS = range(24)
DEFAULTS = (0.0, -0.0, 1.0, 0.25)


# ----------------------------------------------------------------------
# The reference: the sorted-key SparseMoments as shipped before slots.
# ----------------------------------------------------------------------
def locate(
    keys: np.ndarray, queries: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Where each query sits in the sorted, distinct ``keys``.

    Returns the insertion positions (``np.searchsorted``) and a mask of
    the queries that are present, in which case the position is theirs.
    """
    positions = keys.searchsorted(queries)
    if len(keys):
        return positions, keys.take(positions, mode="clip") == queries
    return positions, np.zeros(len(queries), dtype=bool)


def absorb(
    keys: np.ndarray,
    table: np.ndarray,
    new_keys: np.ndarray,
    new_columns: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted ``keys`` and its ``(rows, len(keys))`` companion table,
    grown by keys not yet present and one table column for each."""
    keys = np.concatenate((keys, new_keys))
    order = keys.argsort(kind="stable")
    table = np.concatenate((table, new_columns), axis=1)
    return keys.take(order), table.take(order, axis=1)


class SortedKeyMoments:
    """Streaming mean/variance keyed by feature index.

    Backs the sparse (URL-style) imputer and scaler: the index space is
    unbounded and grows over time, so memory follows the *distinct*
    indices observed — sorted ``keys`` searched with :func:`locate`,
    and a table holding the ``count/mean/M2`` of each — never the
    largest index. Both are exactly as long as the key set, so equal
    statistics are equal state however they were accumulated. Each
    index follows the scalar Welford recurrence in stream order.
    """

    def __init__(self) -> None:
        self._keys = np.empty(0, dtype=np.int64)
        #: Rows: count, mean, M2; one column per key.
        self._table = np.empty((3, 0), dtype=np.float64)

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
        positions, found = locate(self._keys, distinct)
        if not found.all():
            # An unseen index starts at (1, first value, 0) — not at
            # the zero state plus one step, which turns -0.0 and inf
            # into other bits — and that occurrence is consumed.
            new = ~found
            fresh = np.zeros((3, np.count_nonzero(new)))
            fresh[0] = 1.0
            fresh[1] = values.take(starts[new])
            self._keys, self._table = absorb(
                self._keys, self._table, distinct[new], fresh
            )
            positions = self._keys.searchsorted(distinct)
            starts = starts + new
            sizes -= new
        # Largest groups first, so round k touches a prefix of them.
        by_size = sizes.argsort()[::-1]
        starts, at = starts.take(by_size), positions.take(by_size)
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

    def merge(self, other: "SortedKeyMoments") -> None:
        """Fold another accumulator into this one (Chan merge per key)."""
        positions, found = locate(self._keys, other._keys)
        at = positions[found]
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
        self._keys, self._table = absorb(
            self._keys,
            self._table,
            other._keys[~found],
            other._table[:, ~found],
        )

    def means(self, indices: np.ndarray, default: float = 0.0) -> np.ndarray:
        """Mean of every listed index (``default`` if never observed)."""
        positions, found = locate(self._keys, indices)
        means = np.full(len(indices), default, dtype=np.float64)
        means[found] = self._table[1].take(positions[found])
        return means

    def stds(self, indices: np.ndarray, default: float = 1.0) -> np.ndarray:
        """Population std of every listed index (``default`` if unseen
        or zero)."""
        positions, found = locate(self._keys, indices)
        count, __, m2 = self._table.take(positions[found], axis=1)
        with np.errstate(all="ignore"):
            variance = m2 / count
            known = np.sqrt(variance)
        known[variance <= 0.0] = default
        stds = np.full(len(indices), default, dtype=np.float64)
        stds[found] = known
        return stds

    def mean(self, index: int, default: float = 0.0) -> float:
        """Mean of feature ``index`` (``default`` if never observed)."""
        return float(self.means(np.array([index]), default)[0])

    def std(self, index: int, default: float = 1.0) -> float:
        """Population std of ``index`` (``default`` if unseen or zero)."""
        return float(self.stds(np.array([index]), default)[0])

    def count(self, index: int) -> int:
        positions, found = locate(self._keys, np.array([index]))
        return int(self._table[0, positions[0]]) if found[0] else 0

    def indices(self) -> List[int]:
        """All feature indices observed so far, ascending."""
        return self._keys.tolist()

    def __len__(self) -> int:
        return len(self._keys)

    def __repr__(self) -> str:
        return f"SortedKeyMoments({len(self)} indices)"


def shipped_pickle(reference: SortedKeyMoments) -> bytes:
    """The bytes the shipped ``SparseMoments`` (no ``__getstate__``)
    wrote for the reference's state: ``copyreg.__newobj__`` of the
    class, then its ``__dict__``."""
    stand_in = SparseMoments.__new__(SparseMoments)

    class AsShipped(pickle.Pickler):
        def reducer_override(self, obj):
            if obj is not stand_in:
                return NotImplemented
            return copyreg.__newobj__, (SparseMoments,), vars(reference)

    buffer = io.BytesIO()
    AsShipped(buffer, pickle.DEFAULT_PROTOCOL).dump(stand_in)
    return buffer.getvalue()


# ----------------------------------------------------------------------
# Streams
# ----------------------------------------------------------------------
def stream(seed: int) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Chunks of aligned ``(indices, values)``. Keys come from a pool
    that grows as the stream goes, so new keys arrive mid-chunk; a few
    keys only ever carry NaN; values span magnitudes and include
    ``0.0``, ``-0.0``, ``inf`` and ``-inf``."""
    rng = ensure_rng(seed)
    pool = np.unique(rng.integers(-(10**6), 10**12, size=200))
    rng.shuffle(pool)
    nan_only = set(pool[: int(rng.integers(1, 6))].tolist())
    chunks = []
    for number in range(int(rng.integers(6, 14))):
        size = int(rng.integers(0, 60))
        # The pool's open end moves within the chunk: later entries
        # may draw keys no earlier entry had.
        reach = np.linspace(
            8 + 12 * number, 8 + 12 * (number + 1), num=max(size, 1)
        ).astype(int)[:size]
        indices = pool.take(
            (rng.random(size) * np.minimum(reach, len(pool))).astype(int)
        )
        values = rng.standard_normal(size) * 10.0 ** rng.integers(
            -6, 7, size=size
        )
        for share, special in (
            (0.1, np.nan), (0.08, 0.0), (0.08, -0.0),
            (0.03, np.inf), (0.02, -np.inf),
        ):
            values[rng.random(size) < share] = special
        values[np.isin(indices, list(nan_only))] = np.nan
        chunks.append((indices, values))
    return chunks


def frozen(array: np.ndarray) -> np.ndarray:
    array = array.copy()
    array.flags.writeable = False
    return array


def assert_same(ours, reference, queries, where):
    """Every read of ``ours`` is the reference's, byte for byte."""
    assert ours.indices() == reference.indices(), where
    assert len(ours) == len(reference), where
    assert pickle.dumps(ours) == shipped_pickle(reference), where
    for asked in queries:
        for default in DEFAULTS:
            for read in ("means", "stds"):
                got = getattr(ours, read)(asked, default)
                want = getattr(reference, read)(asked, default)
                assert got.tobytes() == want.tobytes(), (
                    f"{where}: {read} at default {default!r}"
                )
                # A fresh (writable, so never kept) array reads the same.
                fresh = getattr(ours, read)(asked.copy(), default)
                assert fresh.tobytes() == want.tobytes(), where
        for index in asked[:5].tolist():
            assert ours.count(index) == reference.count(index), where


def replay(seed):
    return (
        f"seed {seed}; replay: pytest "
        f'tests/property/test_property_sparse_slots.py -k "seed{seed}"'
    )


# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
def test_slots_are_the_sorted_keys_bit_for_bit(seed):
    chunks = stream(seed)
    rng = ensure_rng([seed, 1])
    pickled_at = int(rng.integers(len(chunks)))
    ours, reference = SparseMoments(), SortedKeyMoments()
    # Frozen query arrays that live across chunks, as a stored chunk's
    # parsed indices do; the first is asked before any key exists.
    unseen = np.array([-7, 10**12 + 1, 3], dtype=np.int64)
    queries = [frozen(unseen)]
    assert_same(ours, reference, queries, replay(seed))
    for number, (indices, values) in enumerate(chunks):
        where = f"{replay(seed)}, chunk {number}"
        queries.append(frozen(indices))
        # Ask before the update, so the kept slots have -1 entries
        # that this chunk's new keys must fill.
        assert_same(ours, reference, queries, where)
        ours.update(indices, values)
        reference.update(indices, values)
        assert_same(ours, reference, queries, where)
        if number == pickled_at:
            ours = pickle.loads(pickle.dumps(ours))
            assert_same(ours, reference, queries, f"{where}, restored")
        if len(queries) > 4:
            queries.pop(int(rng.integers(1, len(queries))))


@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
def test_merge_at_a_random_cut(seed):
    chunks = stream(seed)
    cut = int(ensure_rng([seed, 2]).integers(len(chunks) + 1))
    parts = []
    for part in (chunks[:cut], chunks[cut:]):
        ours, reference = SparseMoments(), SortedKeyMoments()
        for indices, values in part:
            ours.update(indices, values)
            reference.update(indices, values)
        parts.append((ours, reference))
    (left, left_ref), (right, right_ref) = parts
    queries = [frozen(indices) for indices, __ in chunks]
    queries.append(frozen(np.array([-7, 10**12 + 1], dtype=np.int64)))
    # Kept slots from before the merge must see the keys it brings.
    assert_same(left, left_ref, queries, f"{replay(seed)}, cut {cut}")
    left.merge(right)
    left_ref.merge(right_ref)
    assert_same(left, left_ref, queries, f"{replay(seed)}, merged at {cut}")


@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
def test_a_shipped_pickle_loads_into_slots(seed):
    """A checkpoint written before slots restores to the same state and
    continues to the same bytes."""
    chunks = stream(seed)
    cut = int(ensure_rng([seed, 3]).integers(len(chunks) + 1))
    reference = SortedKeyMoments()
    for indices, values in chunks[:cut]:
        reference.update(indices, values)
    ours = pickle.loads(shipped_pickle(reference))
    assert isinstance(ours, SparseMoments)
    queries = [frozen(indices) for indices, __ in chunks]
    for number, (indices, values) in enumerate(chunks[cut:], start=cut):
        ours.update(indices, values)
        reference.update(indices, values)
        assert_same(ours, reference, queries, f"{replay(seed)}, chunk {number}")


def test_a_kept_slot_array_is_kept_and_filled_in():
    """The mechanism the properties above cannot see: a frozen array's
    slots are kept, and only its unseen entries are looked up again."""
    moments = SparseMoments()
    moments.update(np.array([5, 9]), np.array([1.0, 2.0]))
    asked = frozen(np.array([9, 4, 5, 4]))
    assert moments.means(asked, 0.5).tolist() == [2.0, 0.5, 1.0, 0.5]
    (slots, unseen, size), = [kept for __, kept in moments._kept.values()]
    assert slots.dtype == np.int32 and slots.tolist() == [1, -1, 0, -1]
    assert unseen.tolist() == [1, 3] and size == 2
    moments.update(np.array([4, 7]), np.array([3.0, 1.0]))
    assert moments.means(asked, 0.5).tolist() == [2.0, 3.0, 1.0, 3.0]
    (slots, unseen, size), = [kept for __, kept in moments._kept.values()]
    assert slots.tolist() == [1, 2, 0, 2] and len(unseen) == 0
    assert size == 4
    assert moments.means(asked.copy()).tolist() == [2.0, 3.0, 1.0, 3.0]
    del asked
    assert len(moments._kept) == 0

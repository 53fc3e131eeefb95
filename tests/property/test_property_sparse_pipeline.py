"""Generated property: the CSR-batch imputer/scaler/hasher and the
array-backed ``SparseMoments`` are bit-identical to the dict-row
pipeline they replaced.

The reference below is that pipeline, kept test-local: rows are
``{index: value}`` dicts, the statistics a ``{index: [count, mean,
M2]}`` dict with one scalar Welford step per value, the hasher a
per-row ``{bucket: sum}`` dict. The new code runs Welford in rounds
(the k-th occurrence of every index is one elementwise step) and sums
bucket collisions with ``np.bincount`` in stored-entry order, so every
comparison is ``tobytes()`` for ``tobytes()`` — no tolerance.

Streams are drawn from ``repro.utils.rng`` seeds and are hostile on
purpose (see :func:`hostile_stream`); a failure names the seed, the
chunk size and the chunk, and ``pytest
tests/property/test_property_sparse_pipeline.py -k "seed<N>"`` replays
it. The growth half (ROADMAP item 5) checks that memory follows the
distinct indices, never the largest one, and that a pickle taken
mid-growth continues to the same bytes.
"""

import pickle
from itertools import count

import numpy as np
import pytest
import scipy.sparse as sp

from repro.pipeline.components.hasher import FeatureHasher, hash_index
from repro.pipeline.components.imputer import SparseMeanImputer
from repro.pipeline.components.scaler import SparseStandardScaler
from repro.pipeline.fingerprint import pipeline_fingerprint
from repro.pipeline.pipeline import Pipeline
from repro.pipeline.statistics import SparseMoments
from repro.utils.rng import ensure_rng

from tests.sparse import entries, sparse_rows

SEEDS = range(24)
CHUNK_ROWS = (1, 7, 50)
WIDTH = 16  # narrow, so most rows collide
FILL = 0.25


# ----------------------------------------------------------------------
# The reference: the dict-row pipeline as it was before the CSR batch.
# ----------------------------------------------------------------------
class ReferenceMoments:
    def __init__(self):
        self.stats = {}  # index -> [count, mean, M2]

    def update(self, rows):
        stats = self.stats
        for row in rows:
            for index, value in row.items():
                if value != value:
                    continue
                entry = stats.get(index)
                if entry is None:
                    stats[index] = [1.0, float(value), 0.0]
                    continue
                entry[0] += 1.0
                delta = value - entry[1]
                entry[1] += delta / entry[0]
                entry[2] += delta * (value - entry[1])

    def merge(self, other):
        for index, (o_count, o_mean, o_m2) in other.stats.items():
            entry = self.stats.get(index)
            if entry is None:
                self.stats[index] = [o_count, o_mean, o_m2]
                continue
            count, mean, m2 = entry
            total = count + o_count
            delta = o_mean - mean
            entry[0] = total
            entry[1] = mean + delta * o_count / total
            entry[2] = m2 + o_m2 + delta * delta * count * o_count / total

    def mean(self, index, default=0.0):
        entry = self.stats.get(index)
        return entry[1] if entry is not None else default

    def std(self, index, default=1.0):
        entry = self.stats.get(index)
        if entry is None or entry[0] < 1:
            return default
        variance = entry[2] / entry[0]
        if variance <= 0.0:
            return default
        return float(np.sqrt(variance))

    def count(self, index):
        entry = self.stats.get(index)
        return int(entry[0]) if entry is not None else 0


class ReferencePipeline:
    """impute -> scale -> hash over lists of dict rows."""

    def __init__(self, signed):
        self.signed = signed
        self.imputer = ReferenceMoments()
        self.scaler = ReferenceMoments()

    def run(self, rows, labels, update):
        if update:
            self.imputer.update(rows)
        rows = [
            {
                index: (
                    value
                    if value == value
                    else self.imputer.mean(index, default=FILL)
                )
                for index, value in row.items()
            }
            for row in rows
        ]
        if update:
            self.scaler.update(rows)
        rows = [
            {
                index: value / self.scaler.std(index, default=1.0)
                for index, value in row.items()
            }
            for row in rows
        ]
        data, indices, indptr = [], [], [0]
        for row in rows:
            bucket_values = {}
            for index, value in row.items():
                bucket, sign = hash_index(index, WIDTH)
                contribution = value * sign if self.signed else value
                bucket_values[bucket] = (
                    bucket_values.get(bucket, 0.0) + contribution
                )
            ordered = sorted(bucket_values.items())
            indices.extend(bucket for bucket, __ in ordered)
            data.extend(value for __, value in ordered)
            indptr.append(len(indices))
        matrix = sp.csr_matrix(
            (
                np.asarray(data, dtype=np.float64),
                np.asarray(indices, dtype=np.int64),
                np.asarray(indptr, dtype=np.int64),
            ),
            shape=(len(rows), WIDTH),
        )
        return matrix, np.asarray(labels, dtype=np.float64)


def new_pipeline(signed):
    return Pipeline(
        [
            SparseMeanImputer(fill_value=FILL, name="imputer"),
            SparseStandardScaler(name="scaler"),
            FeatureHasher(WIDTH, signed=signed, name="hasher"),
        ]
    )


# ----------------------------------------------------------------------
# Hostile streams
# ----------------------------------------------------------------------
def colliding_indices(bucket, how_many=3):
    """The first raw indices that ``hash_index`` sends to ``bucket``."""
    found = []
    for index in count():
        if hash_index(index, WIDTH)[0] == bucket:
            found.append(index)
            if len(found) == how_many:
                return found


def hostile_stream(seed, rows=120):
    """``(rows, labels)``: dict rows over ~40 raw indices — some
    negative, one at 10**12 — with empty rows, all-NaN rows, an index
    whose first sighting is NaN, stored ``0.0``/``-0.0``, ``±inf``,
    values across 12 orders of magnitude, and rows that put three
    indices into one bucket."""
    rng = ensure_rng(seed)
    pool = np.concatenate(
        [
            rng.integers(-50, 5000, size=36),
            [10**12, -(10**9), 3, 4],
        ]
    )
    pool = np.unique(pool)
    late = int(pool[int(rng.integers(len(pool)))])  # first seen as NaN
    triple = colliding_indices(int(rng.integers(WIDTH)))
    stream = []
    for __ in range(rows):
        kind = rng.random()
        if kind < 0.1:
            stream.append({})
            continue
        width = int(rng.integers(1, 9))
        chosen = rng.choice(pool, size=width, replace=False).tolist()
        if kind < 0.25:
            chosen = triple + [c for c in chosen if c not in triple]
        values = rng.standard_normal(len(chosen)) * 10.0 ** rng.integers(
            -6, 7, size=len(chosen)
        )
        values[rng.random(len(values)) < 0.15] = np.nan
        values[rng.random(len(values)) < 0.08] = 0.0
        values[rng.random(len(values)) < 0.08] = -0.0
        values[rng.random(len(values)) < 0.03] = np.inf
        values[rng.random(len(values)) < 0.02] = -np.inf
        if kind > 0.92:
            values[:] = np.nan
        row = dict(zip(chosen, values.tolist()))
        if late in row and not any(late in seen for seen in stream):
            row[late] = float("nan")
        stream.append(row)
    labels = rng.choice([-1.0, 1.0], size=rows).tolist()
    return stream, labels


def features_bytes(matrix, labels):
    return tuple(
        (array.dtype.str, array.tobytes())
        for array in (matrix.indptr, matrix.indices, matrix.data, labels)
    )


def scalar_bytes(value):
    return np.float64(value).tobytes()


# ----------------------------------------------------------------------
@pytest.mark.parametrize("signed", [True, False], ids=["signed", "unsigned"])
@pytest.mark.parametrize("chunk_rows", CHUNK_ROWS)
@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
def test_csr_pipeline_matches_dict_rows(seed, chunk_rows, signed):
    stream, labels = hostile_stream(seed)
    reference = ReferencePipeline(signed)
    pipeline = new_pipeline(signed)
    imputer, scaler, __ = pipeline.components
    seen = set()
    for start in range(0, len(stream), chunk_rows):
        rows = stream[start:start + chunk_rows]
        chunk_labels = labels[start:start + chunk_rows]
        batch = sparse_rows(rows, chunk_labels)
        where = f"seed {seed}, {chunk_rows}-row chunk at row {start}"
        # The prequential order: serve with the old statistics, then
        # update and transform.
        for update, run in (
            (False, pipeline.transform),
            (True, pipeline.update_transform),
        ):
            expected = features_bytes(
                *reference.run(rows, chunk_labels, update)
            )
            features = run(batch)
            assert features_bytes(*features) == expected, (
                f"{where}, update={update}"
            )
        seen.update(index for row in rows for index in row)
        for ours, theirs in (
            (imputer._moments, reference.imputer),
            (scaler._moments, reference.scaler),
        ):
            assert len(ours) == len(theirs.stats), where
            for index in seen:
                assert ours.count(index) == theirs.count(index), where
                for moment in ("mean", "std"):
                    got = getattr(ours, moment)(index)
                    want = getattr(theirs, moment)(index)
                    assert scalar_bytes(got) == scalar_bytes(want), (
                        f"{where}: {moment} of index {index}: "
                        f"{got!r} != {want!r}"
                    )


@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
def test_merge_is_chans_per_key(seed):
    """``merge`` of array-backed moments: the dict merge, bit for bit,
    wherever the stream is cut."""
    stream, __ = hostile_stream(seed)
    cut = int(ensure_rng(seed).integers(1, len(stream)))
    left, right = SparseMoments(), SparseMoments()
    left.update(*entries(stream[:cut]))
    right.update(*entries(stream[cut:]))
    expected, other = ReferenceMoments(), ReferenceMoments()
    expected.update(stream[:cut])
    other.update(stream[cut:])
    left.merge(right)
    expected.merge(other)
    assert sorted(expected.stats) == left.indices()
    for index, (n, mean, __) in expected.stats.items():
        assert left.count(index) == int(n)
        assert scalar_bytes(left.mean(index)) == scalar_bytes(mean)
        assert scalar_bytes(left.std(index)) == scalar_bytes(
            expected.std(index)
        )


# ----------------------------------------------------------------------
# Growth: memory follows the distinct indices (ROADMAP item 5)
# ----------------------------------------------------------------------
def stored_bytes(moments):
    return moments._keys.nbytes + moments._table.nbytes


def test_ten_thousand_new_indices_in_one_row():
    rng = ensure_rng(5)
    wide = rng.choice(10**7, size=10_000, replace=False).tolist()
    rows = [
        {3: 1.0, 10**12: 2.0, -7: 3.0},
        dict(zip(wide, rng.standard_normal(10_000).tolist())),
        {3: 2.0, 10**12: 5.0, -7: -1.0, wide[0]: 0.5},
    ]
    pipeline = new_pipeline(signed=True)
    reference = ReferencePipeline(signed=True)
    for row in rows:
        features = pipeline.update_transform(sparse_rows([row]))
        assert features_bytes(*features) == features_bytes(
            *reference.run([row], [1.0], update=True)
        )
    distinct = len({index for row in rows for index in row})
    imputer, scaler, hasher = pipeline.components
    for moments in (imputer._moments, scaler._moments):
        assert len(moments) == distinct
        # One int64 key and three float64 moments per distinct index —
        # an array addressed by 10**12 would be 8 TB.
        assert stored_bytes(moments) == distinct * 4 * 8
        assert moments.count(10**12) == 2 and moments.count(-7) == 2
        assert moments.indices()[0] == -7
        assert moments.indices()[-1] == 10**12
    assert len(hasher._keys) == distinct
    assert hasher._memo.nbytes == distinct * 2 * 8


@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
def test_pickle_mid_growth_continues_to_identical_bytes(seed):
    stream, labels = hostile_stream(seed)
    cut = int(ensure_rng(seed).integers(1, len(stream)))
    straight = new_pipeline(signed=True)
    straight.update_transform(sparse_rows(stream[:cut], labels[:cut]))
    resumed = pickle.loads(pickle.dumps(straight))
    for start in range(cut, len(stream), 7):
        batch = sparse_rows(
            stream[start:start + 7], labels[start:start + 7]
        )
        assert features_bytes(
            *resumed.update_transform(batch)
        ) == features_bytes(*straight.update_transform(batch))
    # Same state too. (Fingerprints, not the pipeline's pickle: arrays
    # descended from unpickled ones carry their own dtype objects, which
    # moves pickle's memo references without moving any content.)
    assert pipeline_fingerprint(resumed) == pipeline_fingerprint(straight)
    for ours, theirs in zip(resumed.components, straight.components):
        assert pickle.dumps(ours) == pickle.dumps(theirs)

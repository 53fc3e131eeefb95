"""Unit tests for the bounded chunk storage."""

import pytest

from repro.data.chunk import ChunkStub, FeatureChunk
from repro.data.storage import ChunkStorage
from repro.exceptions import StorageError
from tests.conftest import make_feature_chunk, make_raw_chunk


class TestRawStorage:
    def test_put_get_roundtrip(self):
        storage = ChunkStorage()
        chunk = make_raw_chunk(0)
        storage.put_raw(chunk)
        assert storage.get_raw(0) is chunk
        assert storage.num_raw == 1

    def test_duplicate_timestamp_rejected(self):
        storage = ChunkStorage()
        storage.put_raw(make_raw_chunk(0))
        with pytest.raises(StorageError, match="already"):
            storage.put_raw(make_raw_chunk(0))

    def test_missing_raw_raises(self):
        with pytest.raises(StorageError, match="not stored"):
            ChunkStorage().get_raw(99)

    def test_raw_capacity_drops_oldest(self):
        storage = ChunkStorage(raw_capacity=2)
        for t in range(3):
            storage.put_raw(make_raw_chunk(t))
        assert storage.raw_timestamps == [1, 2]
        assert storage.stats.raw_dropped == 1
        assert not storage.has_raw(0)

    def test_raw_drop_also_removes_feature_entry(self):
        storage = ChunkStorage(raw_capacity=1)
        storage.put_raw(make_raw_chunk(0))
        storage.put_features(make_feature_chunk(0))
        storage.put_raw(make_raw_chunk(1))
        assert not storage.has_features_entry(0)
        assert storage.num_materialized == 0


class TestFeatureStorage:
    def test_put_get_materialized(self):
        storage = ChunkStorage()
        chunk = make_feature_chunk(0)
        storage.put_features(chunk)
        assert storage.is_materialized(0)
        assert storage.get_features(0) is chunk
        assert storage.stats.feature_hits == 1

    def test_duplicate_materialized_rejected(self):
        storage = ChunkStorage()
        storage.put_features(make_feature_chunk(0))
        with pytest.raises(StorageError, match="already materialized"):
            storage.put_features(make_feature_chunk(0))

    def test_missing_entry_raises(self):
        with pytest.raises(StorageError, match="no feature chunk"):
            ChunkStorage().get_features(1)

    def test_eviction_oldest_first(self):
        storage = ChunkStorage(max_materialized=2)
        for t in range(4):
            storage.put_features(make_feature_chunk(t))
        assert storage.materialized_timestamps == [2, 3]
        # Evicted entries remain as stubs.
        assert storage.has_features_entry(0)
        assert isinstance(storage.get_features(0), ChunkStub)
        assert storage.stats.feature_misses == 1

    def test_zero_budget_materializes_nothing(self):
        storage = ChunkStorage(max_materialized=0)
        storage.put_features(make_feature_chunk(0))
        assert storage.num_materialized == 0
        assert isinstance(storage.get_features(0), ChunkStub)

    def test_byte_budget_evicts(self):
        small = make_feature_chunk(0, rows=2, dim=2)
        storage = ChunkStorage(max_bytes=small.nbytes())
        storage.put_features(small)
        storage.put_features(make_feature_chunk(1, rows=2, dim=2))
        assert storage.num_materialized <= 1

    def test_rematerialization_over_stub_allowed(self):
        storage = ChunkStorage(max_materialized=1)
        storage.put_features(make_feature_chunk(0))
        storage.put_features(make_feature_chunk(1))  # evicts 0
        assert not storage.is_materialized(0)
        storage.put_features(make_feature_chunk(0))  # re-materialize
        assert storage.is_materialized(0)
        # Budget still enforced: chunk 1 got evicted instead.
        assert storage.num_materialized == 1

    def test_explicit_evict(self):
        storage = ChunkStorage()
        storage.put_features(make_feature_chunk(0))
        stub = storage.evict(0)
        assert stub.timestamp == 0
        assert not storage.is_materialized(0)

    def test_evict_non_materialized_raises(self):
        storage = ChunkStorage()
        with pytest.raises(StorageError, match="not materialized"):
            storage.evict(0)

    def test_peek_does_not_count_hits(self):
        storage = ChunkStorage()
        storage.put_features(make_feature_chunk(0))
        storage.peek_features(0)
        assert storage.stats.feature_hits == 0
        assert storage.stats.feature_misses == 0

    def test_materialized_bytes_tracks_evictions(self):
        storage = ChunkStorage(max_materialized=1)
        storage.put_features(make_feature_chunk(0))
        bytes_one = storage.materialized_bytes
        storage.put_features(make_feature_chunk(1))
        assert storage.materialized_bytes == pytest.approx(
            bytes_one, rel=0.5
        )

    def test_invalid_budgets_rejected(self):
        with pytest.raises(StorageError):
            ChunkStorage(max_materialized=-1)
        with pytest.raises(StorageError):
            ChunkStorage(max_bytes=-5)
        with pytest.raises(StorageError):
            ChunkStorage(raw_capacity=0)


"""Unit tests for the DataManager (ingestion, sampling, dynamic
materialization)."""

import numpy as np
import pytest

from repro.data.chunk import FeatureChunk, RawChunk
from repro.data.manager import DataManager, SampleRequest
from repro.data.sampling import UniformSampler
from repro.data.storage import ChunkStorage
from repro.data.table import Table
from repro.exceptions import SamplingError, StorageError


def simple_materializer(raw: RawChunk) -> FeatureChunk:
    """Deterministic transform: feature = x column as a 1-col matrix."""
    values = np.asarray(raw.table.column("x"), dtype=np.float64)
    return FeatureChunk(
        timestamp=raw.timestamp,
        raw_reference=raw.timestamp,
        features=values[:, None],
        labels=np.asarray(raw.table.column("label"), dtype=np.float64),
    )


def ingest_chunks(manager: DataManager, count: int) -> None:
    rng = np.random.default_rng(0)
    for __ in range(count):
        table = Table(
            {
                "x": rng.standard_normal(4),
                "label": rng.choice([-1.0, 1.0], size=4),
            }
        )
        raw = manager.ingest(table)
        manager.store_features(simple_materializer(raw))


class TestIngestion:
    def test_timestamps_monotone(self):
        manager = DataManager()
        table = Table({"x": [1.0], "label": [1.0]})
        assert manager.ingest(table).timestamp == 0
        assert manager.ingest(table).timestamp == 1

    def test_store_features_requires_raw(self):
        manager = DataManager()
        orphan = FeatureChunk(
            timestamp=5,
            raw_reference=5,
            features=np.ones((1, 1)),
            labels=np.ones(1),
        )
        with pytest.raises(StorageError, match="not stored"):
            manager.store_features(orphan)

    def test_num_chunks_counts_feature_entries(self):
        manager = DataManager()
        ingest_chunks(manager, 3)
        assert manager.num_chunks == 3


class TestSampling:
    def test_sample_returns_materialized(self):
        manager = DataManager(seed=0)
        ingest_chunks(manager, 6)
        samples = manager.sample(SampleRequest(3), simple_materializer)
        assert len(samples) == 3
        assert all(s.was_materialized for s in samples)
        assert manager.stats.utilization() == 1.0

    def test_sample_rematerializes_evicted(self):
        storage = ChunkStorage(max_materialized=2)
        manager = DataManager(storage=storage, seed=0)
        ingest_chunks(manager, 6)
        samples = manager.sample(SampleRequest(6), simple_materializer)
        assert len(samples) == 6
        rebuilt = [s for s in samples if not s.was_materialized]
        assert len(rebuilt) == 4
        # Rebuilt payloads are correct (same transform).
        for sample in rebuilt:
            raw = storage.get_raw(sample.chunk.raw_reference)
            expected = simple_materializer(raw)
            assert np.array_equal(
                sample.chunk.features, expected.features
            )

    def test_transient_rematerialization_default(self):
        storage = ChunkStorage(max_materialized=2)
        manager = DataManager(storage=storage, seed=0)
        ingest_chunks(manager, 6)
        manager.sample(SampleRequest(6), simple_materializer)
        # The materialized set is still the newest two chunks.
        assert storage.materialized_timestamps == [4, 5]

    def test_sample_empty_population_raises(self):
        with pytest.raises(SamplingError, match="no chunks"):
            DataManager().sample(SampleRequest(1), simple_materializer)

    def test_materializer_timestamp_mismatch_rejected(self):
        storage = ChunkStorage(max_materialized=0)
        manager = DataManager(storage=storage, seed=0)
        ingest_chunks(manager, 2)

        def broken(raw: RawChunk) -> FeatureChunk:
            chunk = simple_materializer(raw)
            return FeatureChunk(
                timestamp=chunk.timestamp + 10,
                raw_reference=chunk.raw_reference,
                features=chunk.features,
                labels=chunk.labels,
            )

        with pytest.raises(StorageError, match="timestamp"):
            manager.sample(SampleRequest(2), broken)

    def test_utilization_stats_recorded(self):
        storage = ChunkStorage(max_materialized=3)
        manager = DataManager(storage=storage, seed=1)
        ingest_chunks(manager, 6)
        manager.sample(SampleRequest(6), simple_materializer)
        stats = manager.stats
        assert stats.operations == 1
        assert stats.chunks_sampled == 6
        assert stats.chunks_materialized == 3
        assert stats.utilization() == pytest.approx(0.5)

    def test_dropped_raw_excluded_from_population(self):
        storage = ChunkStorage(raw_capacity=3)
        manager = DataManager(storage=storage, seed=0)
        ingest_chunks(manager, 6)
        samples = manager.sample(SampleRequest(6), simple_materializer)
        assert sorted(s.timestamp for s in samples) == [3, 4, 5]

    def test_invalid_request(self):
        with pytest.raises(SamplingError):
            SampleRequest(0)

    def test_sampler_injected(self):
        manager = DataManager(sampler=UniformSampler(), seed=0)
        assert isinstance(manager.sampler, UniformSampler)

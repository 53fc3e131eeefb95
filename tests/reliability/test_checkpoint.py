"""Tests for platform checkpoints: round-trip, retention, fallback."""

import json

import numpy as np
import pytest

from repro.data.chunk import FeatureChunk, RawChunk
from repro.data.storage import ChunkStorage
from repro.data.table import Table
from repro.datasets.url import make_url_pipeline
from repro.exceptions import ReliabilityError
from repro.ml.models import LinearSVM
from repro.ml.optim import Adam
from repro.obs import Telemetry
from repro.persistence import DeploymentBundle, PersistenceError
from repro.reliability import (
    CHECKPOINT_MAGIC,
    CheckpointConfig,
    CheckpointStore,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    PlatformCheckpoint,
    Retrier,
    RetryPolicy,
    SimulatedCrash,
    as_store,
)


def small_bundle():
    return DeploymentBundle(
        pipeline=make_url_pipeline(hash_features=32),
        model=LinearSVM(num_features=32),
        optimizer=Adam(0.05),
    )


def make_checkpoint(cursor, **state):
    return PlatformCheckpoint(
        cursor=cursor,
        approach="online",
        bundle=small_bundle(),
        state=dict(state),
    )


class TestConfig:
    def test_validation(self):
        with pytest.raises(Exception, match="cadence_chunks"):
            CheckpointConfig(directory="x", cadence_chunks=0)
        with pytest.raises(Exception, match="keep"):
            CheckpointConfig(directory="x", keep=0)

    def test_cursor_must_be_non_negative(self):
        with pytest.raises(ReliabilityError, match="cursor"):
            make_checkpoint(-1)


class TestAsStore:
    def test_none_passes_through(self):
        assert as_store(None) is None

    def test_path_gets_defaults(self, tmp_path):
        store = as_store(str(tmp_path / "ckpts"))
        assert isinstance(store, CheckpointStore)
        assert store.cadence == 10
        assert store.keep == 3

    def test_config_and_store_accepted(self, tmp_path):
        config = CheckpointConfig(
            directory=tmp_path, cadence_chunks=4, keep=2
        )
        store = as_store(config)
        assert store.cadence == 4
        assert as_store(store) is store


class TestRoundTrip:
    def test_write_then_load(self, tmp_path):
        store = CheckpointStore(tmp_path)
        original = make_checkpoint(
            5, prequential={"sum": 1.5, "count": 10}
        )
        path = store.write(original)
        assert path.name == "ckpt-00000005.ckpt"
        loaded = store.load(path)
        assert loaded.cursor == 5
        assert loaded.approach == "online"
        assert loaded.state["prequential"] == {
            "sum": 1.5,
            "count": 10,
        }

    def test_load_latest_prefers_newest(self, tmp_path):
        store = CheckpointStore(tmp_path)
        for cursor in (3, 6, 9):
            store.write(make_checkpoint(cursor))
        assert store.load_latest().cursor == 9

    def test_load_latest_empty_directory_raises(self, tmp_path):
        store = CheckpointStore(tmp_path)
        with pytest.raises(ReliabilityError, match="no valid"):
            store.load_latest()

    def test_older_format_is_refused_by_name(self, tmp_path):
        # A format-3 directory (a fleet tenant's static schedule and
        # chunk_errors) must not reach a load_state_dict half-read.
        store = CheckpointStore(tmp_path)
        path = store.write(make_checkpoint(5))
        assert CHECKPOINT_MAGIC == b"REPRO-CKPT-4\n"
        path.write_bytes(
            b"REPRO-CKPT-3\n" + path.read_bytes()[len(CHECKPOINT_MAGIC) :]
        )
        with pytest.raises(
            ReliabilityError, match="not a REPRO-CKPT-4 envelope"
        ):
            store.load_latest()

    def test_refs_sidecar_written(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.write(make_checkpoint(7))
        refs = json.loads(
            (tmp_path / "ckpt-00000007.refs.json").read_text()
        )
        assert refs == {"cursor": 7, "chunks": []}


class TestCorruptionFallback:
    def test_corrupt_latest_falls_back_to_previous(self, tmp_path):
        telemetry = Telemetry()
        store = CheckpointStore(tmp_path, telemetry=telemetry)
        store.write(make_checkpoint(5))
        newest = store.write(make_checkpoint(10))
        blob = bytearray(newest.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        newest.write_bytes(bytes(blob))
        assert store.load_latest().cursor == 5
        events = [
            e for e in telemetry.ring.events
            if e["name"] == "reliability.checkpoint_corrupt"
        ]
        assert len(events) == 1

    def test_all_corrupt_raises(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.write(make_checkpoint(5))
        path.write_bytes(b"garbage")
        with pytest.raises(ReliabilityError, match="no valid"):
            store.load_latest()

    def test_truncated_checkpoint_skipped(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.write(make_checkpoint(5))
        newest = store.write(make_checkpoint(10))
        newest.write_bytes(newest.read_bytes()[:40])
        assert store.load_latest().cursor == 5

    def test_injected_corruption_caught_on_load(self, tmp_path):
        injector = FaultInjector(
            FaultPlan.of(FaultSpec("checkpoint.write", 2, "corrupt"))
        )
        store = CheckpointStore(tmp_path, fault_injector=injector)
        store.write(make_checkpoint(5))
        bad = store.write(make_checkpoint(10))  # corrupted on disk
        with pytest.raises(PersistenceError):
            store.load(bad)
        assert store.load_latest().cursor == 5


class TestWriteFaults:
    def test_crash_on_write_propagates(self, tmp_path):
        injector = FaultInjector(
            FaultPlan.crash_at("checkpoint.write", 1)
        )
        store = CheckpointStore(tmp_path, fault_injector=injector)
        with pytest.raises(SimulatedCrash):
            store.write(make_checkpoint(5))
        assert not (tmp_path / "ckpt-00000005.ckpt").exists()

    def test_retry_masks_transient_write_fault(self, tmp_path):
        injector = FaultInjector(
            FaultPlan.of(FaultSpec("checkpoint.write", 1, "io_error"))
        )
        retrier = Retrier(RetryPolicy(max_attempts=3, seed=0))
        store = CheckpointStore(
            tmp_path, fault_injector=injector, retrier=retrier
        )
        path = store.write(make_checkpoint(5))
        assert store.load(path).cursor == 5
        assert retrier.retries == 1


class TestRetention:
    def test_keep_last_k(self, tmp_path):
        config = CheckpointConfig(directory=tmp_path, keep=2)
        store = CheckpointStore(config)
        for cursor in (2, 4, 6, 8):
            store.write(make_checkpoint(cursor))
        names = [p.name for p in store.checkpoints()]
        assert names == ["ckpt-00000006.ckpt", "ckpt-00000008.ckpt"]
        # sidecars of pruned checkpoints are gone too
        assert sorted(
            p.name for p in tmp_path.glob("*.refs.json")
        ) == ["ckpt-00000006.refs.json", "ckpt-00000008.refs.json"]

    def test_orphaned_chunk_payloads_collected(self, tmp_path):
        storage = ChunkStorage()
        table = Table({"x": np.arange(4.0), "y": np.arange(4.0)})
        storage.put_raw(RawChunk(timestamp=0, table=table))
        storage.put_features(
            FeatureChunk(
                timestamp=0,
                raw_reference=0,
                features=np.ones((4, 2)),
                labels=np.zeros(4),
            )
        )
        config = CheckpointConfig(directory=tmp_path, keep=1)
        store = CheckpointStore(config)
        store.write(make_checkpoint(3), storage=storage)
        assert any(store.chunks_directory.iterdir())
        # A later checkpoint with empty storage supersedes it; the
        # old payloads lose their last reference and are collected.
        store.write(make_checkpoint(6), storage=ChunkStorage())
        assert list(store.chunks_directory.iterdir()) == []


class TestStorageSpill:
    def test_manifest_round_trip(self, tmp_path):
        storage = ChunkStorage(max_materialized=2)
        rng = np.random.default_rng(0)
        for timestamp in range(3):
            table = Table(
                {"x": rng.standard_normal(4), "y": np.arange(4.0)}
            )
            storage.put_raw(RawChunk(timestamp=timestamp, table=table))
            storage.put_features(
                FeatureChunk(
                    timestamp=timestamp,
                    raw_reference=timestamp,
                    features=rng.standard_normal((4, 2)),
                    labels=np.arange(4.0),
                )
            )
        # max_materialized=2 evicted the oldest to a stub
        assert storage.num_materialized == 2
        store = CheckpointStore(tmp_path)
        checkpoint = make_checkpoint(9)
        store.write(checkpoint, storage=storage)
        assert checkpoint.manifest is not None

        restored = ChunkStorage(max_materialized=2)
        store.restore_storage(restored, checkpoint.manifest)
        assert restored.manifest() == storage.manifest()
        for timestamp in storage.materialized_timestamps:
            original = storage.peek_features(timestamp)
            copy = restored.peek_features(timestamp)
            assert (
                copy.features.tobytes()
                == original.features.tobytes()
            )
            assert copy.labels.tobytes() == original.labels.tobytes()

    def test_missing_payload_reported(self, tmp_path):
        storage = ChunkStorage()
        table = Table({"x": np.arange(3.0), "y": np.arange(3.0)})
        storage.put_raw(RawChunk(timestamp=0, table=table))
        store = CheckpointStore(tmp_path)
        checkpoint = make_checkpoint(2)
        store.write(checkpoint, storage=storage)
        for payload in store.chunks_directory.iterdir():
            payload.unlink()
        with pytest.raises(ReliabilityError, match="missing chunk"):
            store.restore_storage(ChunkStorage(), checkpoint.manifest)


def put_chunk(storage, timestamp):
    table = Table({"x": np.full(4, float(timestamp)), "y": np.arange(4.0)})
    storage.put_raw(RawChunk(timestamp=timestamp, table=table))
    storage.put_features(
        FeatureChunk(
            timestamp=timestamp,
            raw_reference=timestamp,
            features=np.full((4, 2), float(timestamp)),
            labels=np.arange(4.0),
        )
    )


def pack_names(store):
    return sorted(path.name for path in store.chunks_directory.iterdir())


def without_digest(names):
    """``raw-00000004-<digest>.pkl`` -> ``raw-00000004``."""
    return sorted(name.rsplit("-", 1)[0] for name in names)


class TestPacks:
    """A checkpoint spills what no earlier one did, as one raw and one
    feature pack — not one file per chunk."""

    def test_two_files_however_many_chunks(self, tmp_path):
        storage = ChunkStorage()
        for timestamp in range(7):
            put_chunk(storage, timestamp)
        store = CheckpointStore(tmp_path)
        store.write(make_checkpoint(7), storage=storage)
        raw, feat = sorted(pack_names(store), reverse=True)
        assert raw.startswith("raw-00000007-")
        assert feat.startswith("feat-00000007-")
        refs = json.loads(
            (tmp_path / "ckpt-00000007.refs.json").read_text()
        )
        assert refs == {"cursor": 7, "chunks": [feat, raw]}

    def test_later_checkpoint_spills_only_new_chunks(self, tmp_path):
        storage = ChunkStorage()
        put_chunk(storage, 0)
        put_chunk(storage, 1)
        store = CheckpointStore(tmp_path)
        first = make_checkpoint(2)
        store.write(first, storage=storage)
        before = pack_names(store)

        store.write(make_checkpoint(3), storage=storage)
        assert pack_names(store) == before  # nothing new, no pack

        put_chunk(storage, 2)
        second = make_checkpoint(4)
        store.write(second, storage=storage)
        added = sorted(set(pack_names(store)) - set(before))
        assert without_digest(added) == ["feat-00000004", "raw-00000004"]
        # Old chunks are still found in the packs that hold them.
        assert second.manifest["raw_files"][:2] == first.manifest["raw_files"]
        assert second.manifest["raw_files"][2] in added
        restored = ChunkStorage()
        store.restore_storage(restored, second.manifest)
        assert restored.manifest() == storage.manifest()
        for timestamp in range(3):
            assert (
                restored.peek_features(timestamp).features.tobytes()
                == storage.peek_features(timestamp).features.tobytes()
            )
            assert restored.peek_raw(timestamp).table.column(
                "x"
            ).tobytes() == storage.peek_raw(timestamp).table.column(
                "x"
            ).tobytes()

    def test_restore_rebuilds_the_spill_index(self, tmp_path):
        storage = ChunkStorage()
        put_chunk(storage, 0)
        checkpoint = make_checkpoint(1)
        CheckpointStore(tmp_path).write(checkpoint, storage=storage)

        resumed = CheckpointStore(tmp_path)  # a new process
        restored = ChunkStorage()
        resumed.restore_storage(restored, checkpoint.manifest)
        before = pack_names(resumed)
        put_chunk(restored, 1)
        later = make_checkpoint(2)
        resumed.write(later, storage=restored)
        assert later.manifest["raw_files"][0] == (
            checkpoint.manifest["raw_files"][0]
        )
        added = set(pack_names(resumed)) - set(before)
        assert without_digest(added) == ["feat-00000002", "raw-00000002"]

    def test_rematerialized_chunk_is_spilled_again(self, tmp_path):
        storage = ChunkStorage(max_materialized=1)
        put_chunk(storage, 0)
        store = CheckpointStore(tmp_path)
        first = make_checkpoint(1)
        store.write(first, storage=storage)
        put_chunk(storage, 1)  # evicts chunk 0's features to a stub
        # Re-materialization: same timestamp, a new FeatureChunk
        # object carrying other bytes (today's statistics).
        storage.put_features(
            FeatureChunk(
                timestamp=0,
                raw_reference=0,
                features=np.full((4, 2), 9.0),
                labels=np.arange(4.0),
            )
        )
        second = make_checkpoint(2)
        store.write(second, storage=storage)

        def payload_file(checkpoint):
            (entry,) = [
                entry
                for entry in checkpoint.manifest["features"]
                if entry["timestamp"] == 0
            ]
            return entry["payload_file"]

        assert payload_file(first).startswith("feat-00000001-")
        assert payload_file(second).startswith("feat-00000002-")
        restored = ChunkStorage(max_materialized=1)
        store.restore_storage(restored, second.manifest)
        assert restored.peek_features(0).features[0, 0] == 9.0

    def test_feature_pack_collected_when_its_chunks_are_evicted(
        self, tmp_path
    ):
        storage = ChunkStorage(max_materialized=1)
        put_chunk(storage, 0)
        store = CheckpointStore(CheckpointConfig(tmp_path, keep=1))
        store.write(make_checkpoint(1), storage=storage)
        put_chunk(storage, 1)  # evicts chunk 0's features to a stub
        store.write(make_checkpoint(2), storage=storage)
        assert without_digest(pack_names(store)) == [
            "feat-00000002",
            "raw-00000001",
            "raw-00000002",
        ]

"""Tests for platform checkpoints: round-trip, retention, fallback."""

import os

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
        # A format-4 directory (a refs sidecar and a pack name a
        # chunk) must not reach a restore half-read.
        store = CheckpointStore(tmp_path)
        path = store.write(make_checkpoint(5))
        assert CHECKPOINT_MAGIC == b"REPRO-CKPT-5\n"
        path.write_bytes(
            b"REPRO-CKPT-4\n" + path.read_bytes()[len(CHECKPOINT_MAGIC) :]
        )
        with pytest.raises(
            ReliabilityError, match="not a REPRO-CKPT-5 envelope"
        ):
            store.load_latest()

    def test_refs_sidecar_written(self, tmp_path):
        # The refs live in the envelope and in the store's memory; no
        # sidecar file is written beside the checkpoint.
        store = CheckpointStore(tmp_path)
        path = store.write(make_checkpoint(7))
        assert store.retained == {path: frozenset()}
        assert store.references(store.load(path)) == frozenset()
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]


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
        # the store's refs of pruned checkpoints are gone too
        assert [p.name for p in store.retained] == names

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
    """``pack-00000004-<digest>.pkl`` -> ``pack-00000004``."""
    return sorted(name.rsplit("-", 1)[0] for name in names)


def raw_files(checkpoint):
    """The pack holding each raw chunk of ``checkpoint``, in order."""
    manifest = checkpoint.manifest
    return [manifest["packs"][index] for index in manifest["raw_pack"]]


class TestPacks:
    """A checkpoint spills what no earlier one did as one pack (a
    storage that can evict: one more, of its feature chunks) — not one
    file per chunk."""

    def test_two_files_however_many_chunks(self, tmp_path):
        storage = ChunkStorage()
        for timestamp in range(7):
            put_chunk(storage, timestamp)
        store = CheckpointStore(tmp_path)
        path = store.write(make_checkpoint(7), storage=storage)
        (pack,) = pack_names(store)
        assert pack.startswith("pack-00000007-")
        assert store.retained == {path: frozenset([pack])}
        assert store.references(store.load(path)) == {pack}
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "chunks",
            path.name,
        ]

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
        assert without_digest(added) == ["pack-00000004"]
        # Old chunks are still found in the packs that hold them.
        assert raw_files(second)[:2] == raw_files(first)
        assert raw_files(second)[2] in added
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
        assert raw_files(later)[0] == raw_files(checkpoint)[0]
        added = set(pack_names(resumed)) - set(before)
        assert without_digest(added) == ["pack-00000002"]

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
            manifest = checkpoint.manifest
            index = manifest["features"].index(0)
            return manifest["packs"][manifest["feature_pack"][index]]

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
            "pack-00000001",
            "pack-00000002",
        ]


class TestWriteCost:
    """What one write costs the disk: a pack and an envelope, each one
    ``fsync``; the directory is listed by the first write only."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def counted(name):
            function = getattr(os, name)

            def call(*args, **kwargs):
                calls.append(name)
                return function(*args, **kwargs)

            return call

        # Path.glob / iterdir and glob.glob all list through these two.
        for name in ("fsync", "listdir", "scandir"):
            monkeypatch.setattr(os, name, counted(name))
        return calls

    def writes(self, store, storage, calls, cursors):
        """The calls each write made, one list a write."""
        log = []
        made = []
        for cursor in cursors:
            put_chunk(storage, cursor)
            log.append({"cursor": cursor})
            del calls[:]
            store.write(
                make_checkpoint(cursor), storage=storage, logs={"log": log}
            )
            made.append(list(calls))
        return made

    def test_two_fsyncs_and_no_listing_after_the_first_write(
        self, tmp_path, calls
    ):
        store = CheckpointStore(CheckpointConfig(tmp_path, keep=2))
        first, *later = self.writes(store, ChunkStorage(), calls, range(6))
        assert first.count("fsync") == 2
        assert later == [["fsync", "fsync"]] * 5
        assert len(pack_names(store)) == 6  # raw chunks live on

    def test_a_store_that_can_evict_packs_its_features_apart(
        self, tmp_path, calls
    ):
        store = CheckpointStore(CheckpointConfig(tmp_path, keep=1))
        storage = ChunkStorage(max_materialized=2)
        __, *later = self.writes(store, storage, calls, range(6))
        assert later == [["fsync"] * 3] * 5
        # Evicted payloads' packs are collected; raw chunks' are not.
        assert without_digest(pack_names(store)) == [
            "feat-00000004",
            "feat-00000005",
            *(f"pack-{cursor:08d}" for cursor in range(6)),
        ]

    def test_first_write_reads_what_the_directory_holds(self, tmp_path):
        storage = ChunkStorage()
        put_chunk(storage, 0)
        CheckpointStore(CheckpointConfig(tmp_path, keep=2)).write(
            make_checkpoint(1), storage=storage
        )
        (kept,) = pack_names(CheckpointStore(tmp_path))
        orphan = tmp_path / "chunks" / "pack-00000009-0123456789abcdef.pkl"
        orphan.write_bytes(b"a crashed write's pack")
        (tmp_path / "ckpt-00000002.ckpt.x1.tmp").write_bytes(b"staged")
        (tmp_path / "chunks" / f"{kept}.x2.tmp").write_bytes(b"staged")

        # A new process, not restored: it spills both chunks again.
        store = CheckpointStore(CheckpointConfig(tmp_path, keep=2))
        put_chunk(storage, 1)
        path = store.write(make_checkpoint(2), storage=storage)
        (new,) = set(pack_names(store)) - {kept}
        assert new.startswith("pack-00000002-")
        assert store.retained == {
            tmp_path / "ckpt-00000001.ckpt": frozenset([kept]),
            path: frozenset([new]),
        }
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "chunks",
            "ckpt-00000001.ckpt",
            "ckpt-00000002.ckpt",
        ]

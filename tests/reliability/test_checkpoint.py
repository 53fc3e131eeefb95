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
        # An envelope of another format must not reach a restore
        # half-read; a format-5 file (an envelope alone, no trailer)
        # is no checkpoint of this store at all.
        store = CheckpointStore(tmp_path)
        path = store.write(make_checkpoint(5))
        assert CHECKPOINT_MAGIC == b"REPRO-CKPT-6\n"
        blob = path.read_bytes()
        at = blob.index(CHECKPOINT_MAGIC)
        path.write_bytes(
            blob[:at] + b"REPRO-CKPT-5\n" + blob[at + len(CHECKPOINT_MAGIC) :]
        )
        with pytest.raises(
            ReliabilityError, match="not a REPRO-CKPT-6 envelope"
        ):
            store.load_latest()
        envelope = blob[at + len(CHECKPOINT_MAGIC) : -21]  # no trailer
        path.write_bytes(b"REPRO-CKPT-5\n" + envelope)
        assert store.checkpoints() == []
        with pytest.raises(ReliabilityError, match="0 file"):
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
        first = store.write(make_checkpoint(3), storage=storage)
        assert len(store.retained[first]) == 2  # raw and features
        # A later checkpoint with empty storage supersedes it; the
        # old file loses its last reference and is unlinked.
        path = store.write(make_checkpoint(6), storage=ChunkStorage())
        assert sorted(tmp_path.iterdir()) == [path]


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
        path = store.write(checkpoint, storage=storage)
        os.truncate(path, 10)  # the section is cut short
        with pytest.raises(ReliabilityError, match="missing chunk"):
            store.restore_storage(ChunkStorage(), checkpoint.manifest)
        path.unlink()
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


def file_names(store):
    return sorted(path.name for path in store.directory.iterdir())


def raw_sections(checkpoint):
    """The section holding each raw chunk of ``checkpoint``, in order."""
    manifest = checkpoint.manifest
    return [
        manifest["sections"][index] for index in manifest["raw_section"]
    ]


def feature_section(checkpoint, timestamp):
    manifest = checkpoint.manifest
    index = manifest["features"].index(timestamp)
    return manifest["sections"][manifest["feature_section"][index]]


class TestPacks:
    """A checkpoint spills what no earlier one did into its own file,
    ahead of its envelope — a section of raw chunks (and log tails),
    then one of feature chunks — not one file per chunk."""

    def test_two_files_however_many_chunks(self, tmp_path):
        storage = ChunkStorage()
        for timestamp in range(7):
            put_chunk(storage, timestamp)
        store = CheckpointStore(tmp_path)
        checkpoint = make_checkpoint(7)
        path = store.write(checkpoint, storage=storage)
        assert file_names(store) == [path.name]
        (raw,) = set(raw_sections(checkpoint))
        features = feature_section(checkpoint, 0)
        assert raw[:2] == (path.name, 0)
        assert features[:2] == (path.name, raw[2])
        assert store.retained == {path: frozenset([raw, features])}
        assert store.references(store.load(path)) == {raw, features}
        # Sections, envelope, then the 21-byte trailer.
        assert path.stat().st_size > raw[2] + features[2] + 21

    def test_later_checkpoint_spills_only_new_chunks(self, tmp_path):
        storage = ChunkStorage()
        put_chunk(storage, 0)
        put_chunk(storage, 1)
        store = CheckpointStore(tmp_path)
        first = make_checkpoint(2)
        store.write(first, storage=storage)

        nothing = make_checkpoint(3)
        store.write(nothing, storage=storage)
        # Nothing new: an envelope alone, naming the first file.
        assert store.references(nothing) == store.references(first)

        put_chunk(storage, 2)
        second = make_checkpoint(4)
        store.write(second, storage=storage)
        # Old chunks are still found in the sections that hold them.
        assert raw_sections(second)[:2] == raw_sections(first)
        assert raw_sections(second)[2][0] == "ckpt-00000004.ckpt"
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
        put_chunk(restored, 1)
        later = make_checkpoint(2)
        resumed.write(later, storage=restored)
        assert raw_sections(later)[0] == raw_sections(checkpoint)[0]
        assert raw_sections(later)[1][0] == "ckpt-00000002.ckpt"
        assert feature_section(later, 0) == feature_section(checkpoint, 0)

    def test_a_cursor_written_twice_keeps_what_it_held(self, tmp_path):
        # The second write replaces the first one's file: the chunks
        # and log tails only that file held are spilled again.
        storage, log = ChunkStorage(), [{"n": 0}]
        put_chunk(storage, 0)
        store = CheckpointStore(tmp_path)
        store.write(make_checkpoint(1), storage=storage, logs={"log": log})
        put_chunk(storage, 1)
        log.append({"n": 1})
        store.write(make_checkpoint(2), storage=storage, logs={"log": log})
        log.append({"n": 2})
        again = make_checkpoint(2)
        store.write(again, storage=storage, logs={"log": log})
        loaded = CheckpointStore(tmp_path).load_latest()
        restored = ChunkStorage()
        CheckpointStore(tmp_path).restore_storage(restored, loaded.manifest)
        assert restored.manifest() == storage.manifest()
        assert restored.peek_raw(1).table.column("x")[0] == 1.0
        logs = CheckpointStore(tmp_path).restore_logs(loaded.logs)
        assert logs == {"log": log}
        assert [ref[0] for ref in loaded.logs["log"]] == [
            "ckpt-00000001.ckpt",
            "ckpt-00000002.ckpt",
        ]

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

        assert feature_section(first, 0)[0] == "ckpt-00000001.ckpt"
        assert feature_section(second, 0)[0] == "ckpt-00000002.ckpt"
        restored = ChunkStorage(max_materialized=1)
        store.restore_storage(restored, second.manifest)
        assert restored.peek_features(0).features[0, 0] == 9.0

    def test_feature_pack_collected_when_its_chunks_are_evicted(
        self, tmp_path
    ):
        storage = ChunkStorage(max_materialized=1)
        put_chunk(storage, 0)
        store = CheckpointStore(CheckpointConfig(tmp_path, keep=1))
        first = make_checkpoint(1)
        store.write(first, storage=storage)
        put_chunk(storage, 1)  # evicts chunk 0's features to a stub
        store.write(make_checkpoint(2), storage=storage)
        # Checkpoint 1 left ``keep``: its file is cut back to its raw
        # section, which checkpoint 2 still names; the feature section
        # and the envelope behind it are gone.
        (raw,) = raw_sections(first)[:1]
        assert file_names(store) == [
            "ckpt-00000001.ckpt",
            "ckpt-00000002.ckpt",
        ]
        assert (tmp_path / "ckpt-00000001.ckpt").stat().st_size == raw[2]
        assert [p.name for p in store.checkpoints()] == [
            "ckpt-00000002.ckpt"
        ]


class TestWriteCost:
    """What one write costs the disk: one file and one ``fsync``, and
    a cut of the checkpoint that left ``keep``; the directory is
    listed by the first write only."""

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
        for name in ("fsync", "listdir", "scandir", "truncate", "unlink"):
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
        assert first == ["scandir", "fsync"]
        assert later == [["fsync"]] + [["fsync", "truncate"]] * 4
        # Raw chunks and log tails live on in every file.
        assert len(file_names(store)) == 6
        assert len(store.checkpoints()) == 2

    def test_a_store_that_can_evict_packs_its_features_apart(
        self, tmp_path, calls
    ):
        store = CheckpointStore(CheckpointConfig(tmp_path, keep=1))
        storage = ChunkStorage(max_materialized=2)
        __, *later = self.writes(store, storage, calls, range(6))
        # One fsync; the checkpoint before is cut, and so is the file
        # whose feature chunk was just evicted.
        assert later == [["fsync", "truncate"]] + [
            ["fsync", "truncate", "truncate"]
        ] * 4
        latest = store.load_latest()
        # Evicted payloads' sections are cut away; raw chunks' are not.
        for cursor in range(6):
            path = tmp_path / f"ckpt-{cursor:08d}.ckpt"
            raw = raw_sections(latest)[cursor]
            assert raw[0] == path.name
            end = raw[1] + raw[2]
            if cursor == 4:
                end = sum(feature_section(latest, 4)[1:])
            if cursor < 5:
                assert path.stat().st_size == end, cursor

    def test_first_write_reads_what_the_directory_holds(self, tmp_path):
        storage = ChunkStorage()
        put_chunk(storage, 0)
        kept = CheckpointStore(CheckpointConfig(tmp_path, keep=2)).write(
            make_checkpoint(1), storage=storage
        )
        kept_refs = CheckpointStore.references(CheckpointStore(tmp_path).load(kept))
        # Cut files nothing names (one this run writes over) and two
        # staging files of crashed writes.
        (tmp_path / "ckpt-00000009.ckpt").write_bytes(b"a cut file")
        (tmp_path / "ckpt-00000002.ckpt").write_bytes(b"another")
        (tmp_path / "ckpt-00000002.ckpt.x1.tmp").write_bytes(b"staged")
        (tmp_path / "ckpt-00000001.ckpt.x2.tmp").write_bytes(b"staged")

        # A new process, not restored: it spills both chunks again.
        store = CheckpointStore(CheckpointConfig(tmp_path, keep=2))
        put_chunk(storage, 1)
        checkpoint = make_checkpoint(2)
        path = store.write(checkpoint, storage=storage)
        assert {ref[0] for ref in store.references(checkpoint)} == {
            path.name
        }
        assert store.retained == {
            kept: kept_refs,
            path: store.references(checkpoint),
        }
        assert file_names(store) == [
            "ckpt-00000001.ckpt",
            "ckpt-00000002.ckpt",
        ]
        assert store.checkpoints() == [kept, path]


class TestWhatOnlyGrowsLeavesTheState:
    @pytest.mark.filterwarnings(
        "ignore::repro.exceptions.ConvergenceWarning"
    )
    def test_histories_outcomes_and_resolved_incidents_are_logs(
        self, tmp_path
    ):
        """A continuous run with a ledger and a monitor: its envelope's
        state holds no list that only grows. Each is a log whose
        segments concatenate to the live list, the prequential history
        saved once, as the error history."""
        from repro.experiments.common import make_deployment, url_scenario
        from repro.obs.monitor import MonitorConfig

        scn = url_scenario("test")
        telemetry = Telemetry()
        telemetry.attach_ledger()
        telemetry.attach_monitor(config=MonitorConfig(window=1e-2))
        deployment = make_deployment(
            scn,
            "continuous",
            telemetry=telemetry,
            checkpoint=CheckpointConfig(tmp_path, cadence_chunks=4),
        )
        scn.fit(deployment)
        result = deployment.run(scn.make_stream())
        store = deployment.reliability.store
        saved = store.load_latest()
        assert saved.cursor == len(result.error_history)

        def keys(value):
            if isinstance(value, dict):
                for key, child in value.items():
                    yield key
                    yield from keys(child)
            elif isinstance(value, (list, tuple)):
                for child in value:
                    yield from keys(child)

        assert not {
            "error_history",
            "cost_history",
            "history",
            "proactive_outcomes",
            "snapshots",
            "entries",
            "resolved_incidents",
        } & set(keys(saved.state))
        monitor = telemetry.monitor
        live = {
            "error_history": result.error_history,
            "cost_history": result.cost_history,
            "proactive_outcomes": deployment.platform.proactive_outcomes,
            "monitor": monitor.snapshots,
            "incidents": monitor.incidents.resolved,
            "lineage": telemetry.ledger.entries,
        }
        assert set(saved.logs) == set(live)
        restored = CheckpointStore(tmp_path).restore_logs(saved.logs)
        assert restored == live
        assert deployment.prequential.history == result.error_history
        assert live["proactive_outcomes"] and live["incidents"]
        # The monitor keeps the incidents from the first open one on.
        head = saved.state["monitor"]["incidents"]["incidents"]
        assert [entry["id"] for entry in head] == [
            incident.id
            for incident in monitor.incidents.incidents[
                len(live["incidents"]) :
            ]
        ]

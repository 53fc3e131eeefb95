"""Tests for deployment-bundle persistence."""

import numpy as np
import pytest

from repro.datasets.taxi import TaxiStreamGenerator, make_taxi_pipeline
from repro.datasets.url import URLStreamGenerator, make_url_pipeline
from repro.ml.models import LinearRegression, LinearSVM
from repro.ml.optim import Adam, RMSProp
from repro.ml.sgd import SGDTrainer
from repro.persistence import (
    DeploymentBundle,
    PersistenceError,
    atomic_write_bytes,
    bundle_checksum,
    load_bundle,
    save_bundle,
)

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.exceptions.ConvergenceWarning"
)


def fitted_url_parts():
    generator = URLStreamGenerator(
        num_chunks=3, rows_per_chunk=20, seed=4
    )
    pipeline = make_url_pipeline(hash_features=128)
    model = LinearSVM(num_features=128)
    optimizer = Adam(0.05)
    trainer = SGDTrainer(model, optimizer)
    for chunk in generator.stream():
        features = pipeline.update_transform(chunk)
        trainer.step(features.matrix, features.labels)
    return generator, pipeline, model, optimizer


class TestRoundtrip:
    def test_url_bundle_roundtrip(self, tmp_path):
        generator, pipeline, model, optimizer = fitted_url_parts()
        path = save_bundle(
            tmp_path / "deployment.bundle", pipeline, model, optimizer
        )
        restored = load_bundle(path)

        # The restored pipeline+model must serve identically.
        probe = generator.chunk(1)
        original = pipeline.transform(probe)
        resumed = restored.pipeline.transform(probe)
        assert np.allclose(
            original.matrix.toarray(), resumed.matrix.toarray()
        )
        assert np.allclose(
            model.predict(original.matrix),
            restored.model.predict(resumed.matrix),
        )

    def test_resumed_training_is_identical(self, tmp_path):
        """The §3.3 property end-to-end: save, restore, and the next
        SGD step matches the never-interrupted run exactly."""
        generator, pipeline, model, optimizer = fitted_url_parts()
        path = save_bundle(
            tmp_path / "d.bundle", pipeline, model, optimizer
        )
        restored = load_bundle(path)

        next_chunk = generator.chunk(2)
        features = pipeline.transform(next_chunk)
        SGDTrainer(model, optimizer).step(
            features.matrix, features.labels
        )
        restored_features = restored.pipeline.transform(
            next_chunk
        )
        SGDTrainer(restored.model, restored.optimizer).step(
            restored_features.matrix, restored_features.labels
        )
        assert restored.model.params_vector() == pytest.approx(
            model.params_vector()
        )

    def test_taxi_bundle_roundtrip(self, tmp_path):
        generator = TaxiStreamGenerator(
            num_chunks=2, rows_per_chunk=30, seed=1
        )
        pipeline = make_taxi_pipeline()
        model = LinearRegression(num_features=11)
        optimizer = RMSProp(0.05)
        features = pipeline.update_transform(
            generator.chunk(0)
        )
        SGDTrainer(model, optimizer).step(
            features.matrix, features.labels
        )
        path = save_bundle(
            tmp_path / "taxi.bundle", pipeline, model, optimizer
        )
        restored = load_bundle(path)
        probe = generator.chunk(1)
        assert np.allclose(
            pipeline.transform(probe).matrix,
            restored.pipeline.transform(probe).matrix,
        )


class TestOnDiskFormat:
    def test_hand_assembled_blob_is_the_format(self, tmp_path):
        """The bundle format, spelled out: ``MAGIC + sha256(payload) +
        payload`` with ``payload = pickle({"version", "bundle"})``. A
        blob assembled this way loads, its checksum reads back, and it
        is byte-for-byte what ``serialize_bundle`` writes."""
        import hashlib
        import pickle

        import repro
        from repro.persistence import MAGIC, serialize_bundle

        __, pipeline, model, optimizer = fitted_url_parts()
        bundle = DeploymentBundle(pipeline, model, optimizer)
        payload = pickle.dumps(
            {"version": repro.__version__, "bundle": bundle},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        digest = hashlib.sha256(payload).digest()
        blob = MAGIC + digest + payload
        path = tmp_path / "by_hand.bundle"
        path.write_bytes(blob)

        restored = load_bundle(path)
        assert np.array_equal(restored.model.weights, model.weights)
        assert bundle_checksum(path) == digest.hex()
        assert serialize_bundle(bundle) == blob


class TestIntegrity:
    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "not_a_bundle"
        path.write_bytes(b"hello world")
        with pytest.raises(PersistenceError, match="magic"):
            load_bundle(path)

    def test_corruption_detected(self, tmp_path):
        __, pipeline, model, optimizer = fitted_url_parts()
        path = save_bundle(
            tmp_path / "d.bundle", pipeline, model, optimizer
        )
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(PersistenceError, match="checksum"):
            load_bundle(path)

    def test_truncation_detected(self, tmp_path):
        __, pipeline, model, optimizer = fitted_url_parts()
        path = save_bundle(
            tmp_path / "d.bundle", pipeline, model, optimizer
        )
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(PersistenceError):
            load_bundle(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(PersistenceError, match="cannot read"):
            load_bundle(tmp_path / "nope.bundle")

    def test_version_mismatch_names_both_versions_and_path(
        self, tmp_path, monkeypatch
    ):
        """A bundle from another library version must fail with an
        error naming the written-by version, the current version, and
        the offending file."""
        import repro
        import repro.persistence as persistence

        __, pipeline, model, optimizer = fitted_url_parts()
        path = tmp_path / "old.bundle"
        monkeypatch.setattr(
            persistence, "_library_version", lambda: "0.1.0"
        )
        save_bundle(path, pipeline, model, optimizer)
        monkeypatch.undo()

        with pytest.raises(PersistenceError) as excinfo:
            load_bundle(path)
        message = str(excinfo.value)
        assert "0.1.0" in message
        assert repro.__version__ in message
        assert str(path) in message


class TestAtomicWrites:
    def test_atomic_write_roundtrip(self, tmp_path):
        path = atomic_write_bytes(tmp_path / "blob", b"payload")
        assert path.read_bytes() == b"payload"
        assert list(tmp_path.iterdir()) == [path]

    def test_kill_before_rename_keeps_previous_bundle(
        self, tmp_path, monkeypatch
    ):
        """A save killed between staging and rename must leave the
        previous bundle intact and loadable — never a truncation."""
        import os

        __, pipeline, model, optimizer = fitted_url_parts()
        path = save_bundle(
            tmp_path / "d.bundle", pipeline, model, optimizer
        )
        expected = model.params_vector().copy()
        before = path.read_bytes()

        def killed(*args, **kwargs):
            raise OSError("killed mid-write")

        monkeypatch.setattr(os, "replace", killed)
        model.weights[:] = 0.0
        with pytest.raises(OSError, match="killed"):
            save_bundle(path, pipeline, model, optimizer)
        monkeypatch.undo()

        # The destination still holds the pre-crash bytes, the staged
        # temp file is gone, and the old state restores cleanly.
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]
        restored = load_bundle(path)
        assert restored.model.params_vector() == pytest.approx(expected)

    def test_kill_during_flush_leaves_no_partial_file(
        self, tmp_path, monkeypatch
    ):
        import os

        def killed(fd):
            raise OSError("killed mid-fsync")

        monkeypatch.setattr(os, "fsync", killed)
        target = tmp_path / "fresh.bundle"
        with pytest.raises(OSError, match="killed"):
            atomic_write_bytes(target, b"half-written")
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_accepts_str_and_path_uniformly(self, tmp_path):
        __, pipeline, model, optimizer = fitted_url_parts()
        as_str = str(tmp_path / "s.bundle")
        returned = save_bundle(as_str, pipeline, model, optimizer)
        assert str(returned) == as_str
        # load/bundle_checksum accept both spellings interchangeably.
        from_str = load_bundle(as_str)
        from_path = load_bundle(returned)
        assert (
            from_str.model.params_vector()
            == pytest.approx(from_path.model.params_vector())
        )
        assert bundle_checksum(as_str) == bundle_checksum(returned)


class TestBundleValidation:
    def test_bundle_type_validation(self):
        __, pipeline, model, optimizer = fitted_url_parts()
        with pytest.raises(PersistenceError):
            DeploymentBundle(
                pipeline="not a pipeline",
                model=model,
                optimizer=optimizer,
            )
        with pytest.raises(PersistenceError):
            DeploymentBundle(
                pipeline=pipeline, model=None, optimizer=optimizer
            )


class TestStaleTmpSweep:
    def test_stray_tmp_swept_on_next_save(self, tmp_path):
        """A writer killed mid-save leaves a staging file behind; the
        next successful save to the same destination removes it."""
        __, pipeline, model, optimizer = fitted_url_parts()
        target = tmp_path / "d.bundle"
        stray = tmp_path / "d.bundle.12345.tmp"
        stray.write_bytes(b"orphaned staging bytes")
        unrelated = tmp_path / "other.bundle.99.tmp"
        unrelated.write_bytes(b"someone else's staging file")

        save_bundle(target, pipeline, model, optimizer)

        assert not stray.exists()
        assert unrelated.exists()  # other destinations untouched
        assert load_bundle(target).model is not None

    def test_sweep_helper_returns_removed(self, tmp_path):
        from repro.persistence import sweep_stale_tmp

        target = tmp_path / "x.bundle"
        stale = [
            tmp_path / "x.bundle.1.tmp",
            tmp_path / "x.bundle.2.tmp",
        ]
        for path in stale:
            path.write_bytes(b"stale")
        removed = sweep_stale_tmp(target)
        assert sorted(removed) == sorted(stale)
        assert sweep_stale_tmp(target) == []

    def test_sweep_matches_the_destination_name_literally(self, tmp_path):
        """``a[1].json`` as a glob reads "a1.json": the sweep must not
        take another writer's live staging file for its own."""
        from repro.persistence import sweep_stale_tmp

        own = tmp_path / "a[1].json.abc.tmp"
        other = tmp_path / "a1.json.live.tmp"
        bare = tmp_path / "a[1].json.tmp"  # not a staging name
        for path in (own, other, bare):
            path.write_bytes(b"staged")
        assert sweep_stale_tmp(tmp_path / "a[1].json") == [own]
        assert other.exists() and bare.exists()


class TestSelectPrunable:
    def test_drops_all_but_newest_k(self):
        from repro.persistence import select_prunable

        items = ["a", "b", "c", "d", "e"]
        assert select_prunable(items, 2) == ["a", "b", "c"]
        assert select_prunable(items, 5) == []
        assert select_prunable(items, 9) == []
        assert select_prunable(items, 0) == items
        assert select_prunable([], 3) == []

    def test_negative_keep_rejected(self):
        from repro.persistence import select_prunable

        with pytest.raises(PersistenceError, match="keep"):
            select_prunable(["a"], -1)


class TestAdaptiveOptimizerRecovery:
    def test_accumulators_restore_bit_identical_step(self, tmp_path):
        """Adam's per-weight moment accumulators survive the bundle
        round-trip and the next SGD step matches bit for bit."""
        import pickle

        generator, pipeline, model, optimizer = fitted_url_parts()
        path = save_bundle(
            tmp_path / "adaptive.bundle", pipeline, model, optimizer
        )
        restored = load_bundle(path)
        assert pickle.dumps(restored.optimizer.state_dict()) == (
            pickle.dumps(optimizer.state_dict())
        )

        next_chunk = generator.chunk(2)
        features = pipeline.transform(next_chunk)
        SGDTrainer(model, optimizer).step(
            features.matrix, features.labels
        )
        restored_features = restored.pipeline.transform(
            next_chunk
        )
        SGDTrainer(restored.model, restored.optimizer).step(
            restored_features.matrix, restored_features.labels
        )
        assert (
            restored.model.params_vector().tobytes()
            == model.params_vector().tobytes()
        )
        # a second step stays locked too (the accumulators keep pace)
        SGDTrainer(model, optimizer).step(
            features.matrix, features.labels
        )
        SGDTrainer(restored.model, restored.optimizer).step(
            restored_features.matrix, restored_features.labels
        )
        assert (
            restored.model.params_vector().tobytes()
            == model.params_vector().tobytes()
        )

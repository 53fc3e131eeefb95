"""Generated properties of a checkpoint write's file order, of the
cuts that retire old checkpoints, and of a crash at any point of them.

A generated run puts a chunk a step into a :class:`ChunkStorage` — a
generated chunk bound evicts payloads, stubs are re-materialized, a
generated ``raw_capacity`` drops the oldest raw chunks — appends to
three append-only logs (an error history that grows every step, and
outcomes and incidents that grow on some), and checkpoints on a
generated cadence with a generated ``keep``, under a generated fault
plan at ``checkpoint.write`` (``corrupt`` envelopes, and ``io_error``
attempts the retry policy absorbs). Every ``os.open``, ``os.fsync``,
``os.replace``, ``os.truncate`` and ``os.unlink`` under the checkpoint
directory is recorded, in order (``fsync`` is recorded, not performed:
the property is the order, not the disk). Then:

* **one fsync a write** — each ``write`` of the store makes exactly
  one ``fsync``, of the file it then renames;
* **ordering** — every atomic write is fsynced before its rename;
  every section a renamed envelope names is in the renamed file or in
  a file renamed into place before it (or on disk before the run) and
  not cut since; and no byte range that an envelope on disk that loads
  names is ever truncated or unlinked;
* **a crash at any boundary** — the run is crashed before one recorded
  call (the process is gone: nothing under the directory happens
  after it, so staging files stay behind and cuts are lost).
  ``load_latest`` of a fresh store on what is left returns what
  :class:`ReferenceStore` — the layout two formats back (a refs
  sidecar, a raw and a feature pack, a ``prune`` that lists the
  directory), kept below as it was — returns when crashed with the
  same checkpoints on disk: the same cursor, state, logs and storage
  contents, payload bytes included, or no valid checkpoint for both;
  and its logs are the uninterrupted run's at that cursor. The fresh
  store then restores, writes two more checkpoints, and leaves no
  ``*.tmp`` file, at most ``keep`` checkpoints, and every other file
  cut to exactly the sections its envelopes name.

The crash points are, per case, one boundary drawn inside every
stretch with the same checkpoints on disk, the boundary right before
each envelope's rename (its sections are staged, it is not on disk),
and the one before each cut (the rename is done, the cut is lost).

Everything is drawn from a ``repro.utils.rng`` seed; a failure names
the seed, the case and the crash, and ``pytest
tests/property/test_property_checkpoint_durability.py -k "seed<N>]"``
replays it.
"""

import hashlib
import json
import os
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro.data.chunk import ChunkStub, FeatureChunk, RawChunk
from repro.data.storage import ChunkStorage
from repro.data.table import Table
from repro.exceptions import ReliabilityError
from repro.persistence import (
    PersistenceError,
    atomic_write_bytes,
    open_envelope,
    seal_envelope,
    select_prunable,
)
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
)
from repro.reliability.checkpoint import CHUNK_MAGIC
from repro.reliability.sites import CHECKPOINT_WRITE
from repro.utils.rng import ensure_rng

SEEDS = range(14)


# ----------------------------------------------------------------------
# The reference: the store as it was before one pack and no sidecar
# (format 4).
# ----------------------------------------------------------------------
class ReferenceStore:
    """A refs sidecar, then the envelope; a raw and a feature pack; a
    ``prune`` that reads every sidecar and lists ``chunks/``. Its
    manifest is one record a chunk, as it was."""

    def __init__(self, config, fault_injector=None, retrier=None):
        self.directory = Path(config.directory)
        self.chunks_directory = self.directory / "chunks"
        self.keep = config.keep
        self.fault_injector = fault_injector
        self.retrier = retrier
        self._spilled_raw = {}
        self._spilled_features = {}
        self._spilled_logs = {}

    def write(self, checkpoint, storage=None, logs=None):
        self.directory.mkdir(parents=True, exist_ok=True)
        tails = self._log_tails(logs or {})
        if storage is not None:
            checkpoint.manifest, refs, pack = self._spill_storage(
                storage, checkpoint.cursor, tails
            )
        else:
            refs = []
            pack = self._write_pack("raw", checkpoint.cursor, tails)
        if logs:
            checkpoint.logs = self._log_refs(logs, tails, pack)
            refs = sorted(set(refs).union(*checkpoint.logs.values()))
        name = f"ckpt-{checkpoint.cursor:08d}"
        atomic_write_bytes(
            self.directory / f"{name}.refs.json",
            json.dumps({"cursor": checkpoint.cursor, "chunks": refs}).encode(),
        )
        blob = seal_envelope(checkpoint, CHECKPOINT_MAGIC)
        path = self.directory / f"{name}.ckpt"

        def attempt():
            if self.fault_injector is not None:
                self.fault_injector.fire(CHECKPOINT_WRITE)
                data = self.fault_injector.corrupt(CHECKPOINT_WRITE, blob)
            else:
                data = blob
            return atomic_write_bytes(path, data)

        if self.retrier is not None:
            self.retrier.call(attempt, site=CHECKPOINT_WRITE)
        else:
            attempt()
        self.prune()
        return path

    def _spill_storage(self, storage, cursor, tails):
        columns = storage.manifest()
        manifest = {
            "raw": columns["raw"],
            "features": [
                {"timestamp": t, "raw_reference": r, "materialized": m}
                for t, r, m in zip(
                    columns["features"],
                    columns["raw_reference"],
                    columns["materialized"],
                )
            ],
            "stats": columns["stats"],
        }
        raw_pack = self._write_pack(
            "raw",
            cursor,
            {
                **tails,
                **{
                    t: storage.peek_raw(t)
                    for t in manifest["raw"]
                    if t not in self._spilled_raw
                },
            },
        )
        self._spilled_raw = {
            t: self._spilled_raw.get(t, raw_pack) for t in manifest["raw"]
        }
        manifest["raw_files"] = list(self._spilled_raw.values())
        materialized = [e for e in manifest["features"] if e["materialized"]]
        spilled, fresh = {}, {}
        for entry in materialized:
            t = entry["timestamp"]
            chunk = storage.peek_features(t)
            cached = self._spilled_features.get(t)
            if cached is not None and cached[0]() is chunk:
                spilled[t] = cached
            else:
                fresh[t] = chunk
        pack = self._write_pack("feat", cursor, fresh)
        for t, chunk in fresh.items():
            spilled[t] = (weakref.ref(chunk), pack)
        self._spilled_features = spilled
        for entry in materialized:
            entry["payload_file"] = spilled[entry["timestamp"]][1]
        refs = set(manifest["raw_files"])
        refs.update(entry["payload_file"] for entry in materialized)
        return manifest, sorted(refs), raw_pack

    def _log_tails(self, logs):
        tails = {}
        for key, log in logs.items():
            spilled = self._spilled_logs.setdefault(key, (0, []))[0]
            if len(log) > spilled:
                tails[key] = log[spilled:]
        return tails

    def _log_refs(self, logs, tails, pack):
        for key, tail in tails.items():
            spilled, files = self._spilled_logs[key]
            self._spilled_logs[key] = (spilled + len(tail), files + [pack])
        return {key: self._spilled_logs[key][1] for key in logs}

    def _write_pack(self, kind, cursor, chunks):
        if not chunks:
            return None
        blob = seal_envelope(chunks, CHUNK_MAGIC)
        digest = hashlib.sha256(blob).hexdigest()[:16]
        name = f"{kind}-{cursor:08d}-{digest}.pkl"
        target = self.chunks_directory / name
        if not target.exists():
            self.chunks_directory.mkdir(parents=True, exist_ok=True)
            atomic_write_bytes(target, blob)
        return name

    def checkpoints(self):
        if not self.directory.is_dir():
            return []
        return sorted(self.directory.glob("ckpt-*.ckpt"))

    def load_latest(self):
        for path in reversed(self.checkpoints()):
            try:
                return open_envelope(path.read_bytes(), CHECKPOINT_MAGIC)
            except PersistenceError:
                continue
        raise ReliabilityError(f"no valid checkpoint under {self.directory}")

    def restore_storage(self, storage, manifest):
        packs = {}

        def load(name, timestamp):
            if name not in packs:
                packs[name] = self._load_pack(name)
            return packs[name][timestamp]

        raw = [
            load(name, t)
            for t, name in zip(manifest["raw"], manifest["raw_files"])
        ]
        features = [
            load(entry["payload_file"], entry["timestamp"])
            if entry["materialized"]
            else ChunkStub(entry["timestamp"], entry["raw_reference"])
            for entry in manifest["features"]
        ]
        storage.restore(raw, features, manifest["stats"])

    def restore_logs(self, refs):
        logs = {}
        for key, files in refs.items():
            logs[key] = [
                entry for name in files for entry in self._load_pack(name)[key]
            ]
        return logs

    def _load_pack(self, name):
        blob = (self.chunks_directory / name).read_bytes()
        return open_envelope(blob, CHUNK_MAGIC)

    def prune(self):
        paths = self.checkpoints()
        dropped = select_prunable(paths, self.keep)
        for path in dropped:
            path.unlink(missing_ok=True)
            path.with_name(path.stem + ".refs.json").unlink(missing_ok=True)
        referenced = set()
        for path in paths[len(dropped) :]:
            try:
                sidecar = path.with_name(path.stem + ".refs.json")
                referenced.update(json.loads(sidecar.read_text())["chunks"])
            except (OSError, ValueError):
                return
        if self.chunks_directory.is_dir():
            for orphan in sorted(self.chunks_directory.iterdir()):
                if orphan.name not in referenced and not orphan.name.endswith(
                    ".tmp"
                ):
                    orphan.unlink(missing_ok=True)


# ----------------------------------------------------------------------
# Recording (and crashing) the file calls.
# ----------------------------------------------------------------------
def is_envelope(name):
    return name.startswith("ckpt-") and name.endswith(".ckpt")


def loadable_refs(directory, name):
    """The sections the envelope of file ``name`` references, ``None``
    when it does not load."""
    try:
        checkpoint = CheckpointStore(directory).load(directory / name)
    except PersistenceError:
        return None
    return CheckpointStore.references(checkpoint)


class Recorder:
    """Every ``os.open``/``fsync``/``replace``/``truncate``/``unlink``
    under ``directory``, with the envelopes on disk *before* the call;
    a :class:`SimulatedCrash` instead of call number ``crash_at``, and
    of every later call under the directory. With ``check``, the
    ordering property is asserted at every rename, cut and unlink."""

    def __init__(self, directory, crash_at=None, check=True):
        self.directory = Path(directory)
        self.crash_at = crash_at
        self.check = check
        self.calls = []
        self.crashed = False
        self.fds = {}
        self.synced = set()
        self.fsyncs = 0
        # File name -> how many of its bytes are durable and in place.
        self.durable = {
            p.name: p.stat().st_size
            for p in self.directory.rglob("*")
            if p.is_file()
        }
        self.envelopes = {
            name
            for name in self.durable
            if is_envelope(name)
            and loadable_refs(self.directory, name) is not None
        }

    def names(self, name, length):
        """Assert no envelope on disk that loads, but the one in file
        ``name`` itself, names a byte of ``name`` past ``length``."""
        for envelope in sorted(self.envelopes - {name}):
            for file, offset, size in loadable_refs(
                self.directory, envelope
            ) or ():
                assert file != name or offset + size <= length, (
                    f"{envelope} names {file}[{offset}:{offset + size}], "
                    f"cut to {length}"
                )

    def install(self, monkeypatch):
        real = {
            name: getattr(os, name)
            for name in ("open", "fsync", "replace", "truncate", "unlink")
        }

        def mine(path):
            return Path(path).is_relative_to(self.directory)

        def record(kind, path):
            """Crash here (and at every call after), or note the call."""
            if self.crashed or len(self.calls) == self.crash_at:
                self.crashed = True
                raise SimulatedCrash(f"process gone before {kind} {path}")
            before = frozenset(self.envelopes)
            self.calls.append((kind, Path(path).name, before))

        def open_(path, flags, *args, **kwargs):
            if not mine(path):
                return real["open"](path, flags, *args, **kwargs)
            record("open", path)
            fd = real["open"](path, flags, *args, **kwargs)
            self.fds[fd] = Path(path)
            return fd

        def fsync(fd):
            path = self.fds.get(fd)
            if path is None:
                return real["fsync"](fd)
            record("fsync", path)
            self.synced.add(path)
            self.fsyncs += 1

        def replace(source, target):
            if not mine(target):
                return real["replace"](source, target)
            source, target = Path(source), Path(target)
            record("replace", target)
            if self.check:
                assert source in self.synced, f"{target.name} renamed unsynced"
                for name, offset, size in (
                    loadable_refs(self.directory, source.name) or ()
                ):
                    assert name == target.name or (
                        offset + size <= self.durable.get(name, 0)
                    ), f"{target.name} names {name}[{offset}:{offset + size}]"
            real["replace"](source, target)
            self.durable[target.name] = target.stat().st_size
            if is_envelope(target.name):
                self.envelopes.add(target.name)

        def truncate(path, length):
            if not mine(path):
                return real["truncate"](path, length)
            path = Path(path)
            record("truncate", path)
            if self.check:
                self.names(path.name, length)
            real["truncate"](path, length)
            self.durable[path.name] = length
            self.envelopes.discard(path.name)

        def unlink(path, *args, **kwargs):
            if not mine(path):
                return real["unlink"](path, *args, **kwargs)
            path = Path(path)
            record("unlink", path)
            if self.check and path.name in self.durable:
                self.names(path.name, 0)
            real["unlink"](path, *args, **kwargs)
            self.envelopes.discard(path.name)
            self.durable.pop(path.name, None)

        monkeypatch.setattr(os, "open", open_)
        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        monkeypatch.setattr(os, "truncate", truncate)
        monkeypatch.setattr(os, "unlink", unlink)


# ----------------------------------------------------------------------
# The generated run.
# ----------------------------------------------------------------------
def draw_case(seed):
    rng = ensure_rng([seed, 36])
    steps = int(rng.integers(6, 16))
    cadence = int(rng.integers(1, 4))
    specs, occurrence = [], 0
    for _ in range(steps // cadence):
        if rng.random() < 0.2:  # a first attempt the retry absorbs
            occurrence += 1
            specs.append(FaultSpec(CHECKPOINT_WRITE, occurrence, "io_error"))
        occurrence += 1
        if rng.random() < 0.2:
            specs.append(FaultSpec(CHECKPOINT_WRITE, occurrence, "corrupt"))
    return {
        "seed": seed,
        "cadence": cadence,
        "keep": int(rng.integers(1, 4)),
        "bound": None if rng.random() < 0.4 else int(rng.integers(1, 4)),
        "capacity": None if rng.random() < 0.5 else int(rng.integers(3, 8)),
        "plan": FaultPlan.of(*specs),
        # An error history grows every step (a deployment's); without
        # one (a platform's, a fleet's) a file may end up holding
        # nothing named, and goes. Drawn apart: the draws above stay.
        "history": bool(ensure_rng([seed, 38]).random() < 0.5),
        # Per step: re-materialize a stub?, log entries appended, a value.
        "steps": [
            (rng.random() < 0.5, int(rng.integers(0, 4)), float(rng.random()))
            for _ in range(steps)
        ],
    }


def describe(case):
    return (
        f"seed={case['seed']} cadence={case['cadence']} keep={case['keep']} "
        f"bound={case['bound']} capacity={case['capacity']} "
        f"history={case['history']} {case['plan']}; "
        f"replay: pytest tests/property/test_property_checkpoint_durability.py"
        f' -k "seed{case["seed"]}]"'
    )


def new_storage(case):
    return ChunkStorage(
        max_materialized=case["bound"], raw_capacity=case["capacity"]
    )


def new_logs():
    return {"error_history": [], "proactive_outcomes": [], "incidents": []}


def put_chunk(storage, timestamp, value):
    table = Table({"x": np.full(3, value + timestamp)})
    storage.put_raw(RawChunk(timestamp, table))
    storage.put_features(
        FeatureChunk(timestamp, timestamp, np.full((3, 2), value), np.zeros(3))
    )


def grow(case, logs, timestamp, appended, value):
    """What a step appends to the logs: a history value every step
    (when the case keeps one), ``appended - 1`` outcomes, and an
    incident on a step with three."""
    if case["history"]:
        logs["error_history"].append(value)
    logs["proactive_outcomes"].extend(
        {"step": timestamp, "n": n} for n in range(appended - 1)
    )
    if appended == 3:
        logs["incidents"].append({"id": timestamp, "state": "resolved"})


def step(case, storage, logs, timestamp, remat, appended, value):
    put_chunk(storage, timestamp, value)
    stubs = [
        t
        for t in storage.feature_timestamps
        if not storage.is_materialized(t) and storage.has_raw(t)
    ]
    if remat and stubs:
        t = stubs[int(value * len(stubs))]
        storage.put_features(
            FeatureChunk(t, t, np.full((3, 2), value + timestamp), np.zeros(3))
        )
    grow(case, logs, timestamp, appended, value)


def logs_at(case, cursor):
    """The uninterrupted run's logs after ``cursor`` steps."""
    logs = new_logs()
    for timestamp, (__, appended, value) in enumerate(
        case["steps"][:cursor], 1
    ):
        grow(case, logs, timestamp, appended, value)
    return logs


def checkpoint_at(timestamp):
    return PlatformCheckpoint(timestamp, "online", None, {"step": timestamp})


def run(case, store):
    storage, logs = new_storage(case), new_logs()
    for timestamp, (remat, appended, value) in enumerate(case["steps"], 1):
        step(case, storage, logs, timestamp, remat, appended, value)
        if timestamp % case["cadence"] == 0:
            store.write(checkpoint_at(timestamp), storage=storage, logs=logs)


def build(kind, case, directory, faults=True):
    config = CheckpointConfig(
        directory, cadence_chunks=case["cadence"], keep=case["keep"]
    )
    return kind(
        config,
        fault_injector=FaultInjector(case["plan"]) if faults else None,
        retrier=Retrier(RetryPolicy(max_attempts=2, seed=case["seed"])),
    )


def one_fsync_a_write(store, recorder):
    """Wrap ``store.write``: each call makes exactly one ``fsync``."""
    write = store.write

    def counted(checkpoint, **kwargs):
        before = recorder.fsyncs
        path = write(checkpoint, **kwargs)
        made = recorder.fsyncs - before
        assert made == 1, f"write of {checkpoint.cursor}: {made} fsyncs"
        return path

    store.write = counted


def recorded(monkeypatch, kind, case, directory, crash_at=None):
    """Run the case with ``kind``'s store under a recorder."""
    recorder = Recorder(directory, crash_at, check=kind is CheckpointStore)
    store = build(kind, case, directory)
    if kind is CheckpointStore:
        one_fsync_a_write(store, recorder)
    with monkeypatch.context() as patched:
        recorder.install(patched)
        try:
            run(case, store)
        except SimulatedCrash:
            assert crash_at is not None
        except AssertionError as error:  # the recorder's, or one fsync
            raise AssertionError(
                f"{error}; crash at {crash_at}; {describe(case)}"
            ) from error
    return recorder


def contents(storage):
    return (
        storage.manifest(),
        [
            (t, storage.peek_raw(t).table.column("x").tobytes())
            for t in storage.raw_timestamps
        ],
        [
            (t, storage.peek_features(t).features.tobytes())
            for t in storage.materialized_timestamps
        ],
    )


def recover(kind, case, directory):
    """What a fresh store restores from ``directory``, and the store."""
    store = build(kind, case, directory, faults=False)
    try:
        checkpoint = store.load_latest()
    except ReliabilityError:
        return None, store
    logs = store.restore_logs(checkpoint.logs or {})
    storage = new_storage(case)
    if checkpoint.manifest is not None:
        store.restore_storage(storage, checkpoint.manifest)
    outcome = (checkpoint.cursor, checkpoint.state, logs, contents(storage))
    return (outcome, storage), store


def cut_to_what_is_named(directory, store, keep):
    """At most ``keep`` checkpoints; every other file holds exactly
    the sections they name (none: it is gone), and each restores."""
    assert not list(directory.rglob("*.tmp"))
    envelopes = [p.name for p in store.checkpoints()]
    assert len(envelopes) <= keep
    ends = {}
    for name in envelopes:
        refs = loadable_refs(directory, name)
        if refs is None:
            continue
        for file, offset, size in refs:
            ends[file] = max(ends.get(file, 0), offset + size)
        checkpoint = CheckpointStore(directory).load(directory / name)
        fresh = CheckpointStore(directory)
        fresh.restore_logs(checkpoint.logs or {})
        fresh.restore_storage(ChunkStorage(), checkpoint.manifest)
    for path in directory.iterdir():
        if path.name not in envelopes:
            assert path.stat().st_size == ends.pop(path.name), path.name
        ends.pop(path.name, None)
    assert not ends, ends  # every section named is on disk


def write_on(case, store, restored, directory):
    """Two more checkpoints on the restored run, then the directory is
    cut to what they name."""
    (cursor, __, logs, ___), storage = restored
    logs = {**new_logs(), **logs}
    for timestamp in range(cursor + 1, cursor + 2 * case["cadence"] + 1):
        step(case, storage, logs, timestamp, True, 1, 0.5)
        if timestamp % case["cadence"] == 0:
            store.write(checkpoint_at(timestamp), storage=storage, logs=logs)
    cut_to_what_is_named(directory, store, case["keep"])


def is_cut(call):
    kind, name, __ = call
    return kind in ("truncate", "unlink") and is_envelope(name)


def crash_points(case, calls):
    """One boundary inside every stretch with the same envelopes on
    disk, the one before each envelope's rename, and the one before
    each cut."""
    rng = ensure_rng([case["seed"], 37])
    points, start = set(), 0
    for index in range(1, len(calls) + 1):
        if index == len(calls) or calls[index][2] != calls[start][2]:
            points.add(int(rng.integers(start, index)))
            start = index
    points.update(
        index
        for index, (kind, name, __) in enumerate(calls)
        if kind == "replace" and is_envelope(name)
        or is_cut(calls[index])
    )
    return sorted(points)


@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
def test_a_crash_anywhere_recovers_what_the_reference_does(
    tmp_path, monkeypatch, seed
):
    case = draw_case(seed)
    context = describe(case)
    full = recorded(monkeypatch, CheckpointStore, case, tmp_path / "full")
    reference = recorded(monkeypatch, ReferenceStore, case, tmp_path / "ref")
    # Both layouts pass through the same checkpoints on disk.
    states = [envelopes for __, ___, envelopes in full.calls]
    reference_states = [envelopes for __, ___, envelopes in reference.calls]
    assert set(states) | {frozenset(full.envelopes)} == set(
        reference_states
    ) | {frozenset(reference.envelopes)}, context

    expected = {}
    for point in crash_points(case, full.calls):
        state = full.calls[point][2]
        where = f"{context}; crash before call {point} {full.calls[point][:2]}"
        directory = tmp_path / f"crash{point}"
        crashed = recorded(
            monkeypatch, CheckpointStore, case, directory, point
        )
        assert crashed.crashed, where
        if state not in expected:
            at = (
                reference_states.index(state)
                if state in reference_states
                else None  # the reference's end: nothing to crash
            )
            ref_directory = tmp_path / f"ref{point}"
            recorded(monkeypatch, ReferenceStore, case, ref_directory, at)
            outcome, __ = recover(ReferenceStore, case, ref_directory)
            expected[state] = outcome and outcome[0]
        restored, store = recover(CheckpointStore, case, directory)
        assert (restored and restored[0]) == expected[state], where
        if restored is not None:
            cursor, __, logs, ___ = restored[0]
            assert logs == logs_at(case, cursor), where
            with monkeypatch.context() as patched:
                recorder = Recorder(directory)
                one_fsync_a_write(store, recorder)
                recorder.install(patched)
                try:
                    write_on(case, store, restored, directory)
                except AssertionError as error:
                    raise AssertionError(f"{error}; {where}") from error


def test_the_property_above_is_not_vacuous(tmp_path, monkeypatch):
    """The seeds reach evictions, re-materializations, raw drops, a
    corrupt envelope, an absorbed ``io_error``, and crashes before an
    envelope's rename, after it, before a cut, and with nothing left
    to recover."""
    reached = set()
    for seed in SEEDS:
        case = draw_case(seed)
        kinds = {spec.kind for spec in case["plan"].specs}
        reached.update(kinds)
        if case["bound"] is not None and any(r for r, *__ in case["steps"]):
            reached.add("rematerialized")
        capacity = case["capacity"]
        if capacity is not None and capacity < len(case["steps"]):
            reached.add("raw dropped")
        calls = recorded(
            monkeypatch, CheckpointStore, case, tmp_path / str(seed)
        ).calls
        for point in crash_points(case, calls):
            kind, name, envelopes = calls[point]
            reached.add(
                "before a rename"
                if kind == "replace" and is_envelope(name)
                else f"before a {kind}" if is_cut(calls[point])
                else "nothing on disk" if not envelopes
                else "between writes"
            )
    assert reached >= {
        "corrupt",
        "io_error",
        "rematerialized",
        "raw dropped",
        "before a rename",
        "before a truncate",
        "before a unlink",
        "nothing on disk",
        "between writes",
    }, reached

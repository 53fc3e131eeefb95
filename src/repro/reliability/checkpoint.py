"""Platform checkpoints: capture, atomic persistence, bounded retention.

A :class:`PlatformCheckpoint` extends the
:class:`~repro.persistence.DeploymentBundle` (pipeline + model +
optimizer) with everything else a run mutates: the stream cursor,
component state dicts (scheduler, sampler RNG, cost tracker, drift
detectors, …), the materialization-cache manifest, and (for telemetry
byte-identity) the metrics-registry state.

A :class:`CheckpointStore` owns one checkpoint directory::

    <dir>/ckpt-00000012.ckpt        checksummed envelope (see
                                    repro.persistence.seal_envelope)
    <dir>/ckpt-00000012.refs.json   pack files this checkpoint needs
    <dir>/chunks/raw-00000012-<digest>.pkl
                                    the raw chunks checkpoint 12 was
                                    the first to spill, one envelope;
                                    with them what every append-only
                                    log gained since checkpoint 11
    <dir>/chunks/feat-00000012-<digest>.pkl
                                    likewise its feature chunks

Checkpoint files are written atomically (staged + ``os.replace``) on a
configurable cadence and pruned to the newest ``keep`` (the shared
:func:`~repro.persistence.select_prunable` policy). Chunk payloads are
content-immutable and written once, in the pack of the first
checkpoint that holds them: a checkpoint costs two payload files (and
two ``fsync`` waits) however many chunks arrived since the last one,
not one per chunk. A pack is garbage-collected when no retained
checkpoint references any chunk in it; raw and feature chunks go to
separate packs because only feature chunks are ever evicted.

A checkpoint writes what changed. An append-only log (the lineage
ledger's entries, the monitor's snapshots) is handed over as the
owner's *live* list; the store remembers how many entries of it are on
disk, writes ``log[spilled:]`` and the envelope carries, per log, the
ordered pack names whose segments concatenate to it. The tails ride in
the raw pack (keyed by log name beside the timestamps): a log segment
has a raw chunk's lifetime — never evicted, needed by every later
checkpoint — so it needs no file, and no ``fsync``, of its own, and it
follows the chunk packs' rules to the letter: digest-named, in the
refs sidecar before the envelope exists, collected by refs, and the
count is rebuilt by :meth:`CheckpointStore.restore_logs` so a resumed
run spills only what it appends. A checkpoint is four small atomic
writes (sidecar, envelope, raw pack, feature pack) whatever the run's
history.

Feature payloads *must* be persisted rather than re-derived: a
materialized chunk embeds the pipeline statistics as of its ingest
time, so re-running today's pipeline over the raw chunk would produce
different bytes — and different downstream training results — than the
uninterrupted run. The manifest stores ids; the payload files store
the arrays; recovery reassembles the exact cache.

Loading falls back: :meth:`CheckpointStore.load_latest` walks
checkpoints newest-first and skips any that fail their checksum, so a
corrupted latest checkpoint degrades recovery to the previous one
instead of failing it.
"""

from __future__ import annotations

import hashlib
import json
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro.data.chunk import ChunkStub, FeatureChunk, RawChunk
from repro.exceptions import ReliabilityError
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.obs import names
from repro.persistence import (
    DeploymentBundle,
    PathLike,
    PersistenceError,
    atomic_write_bytes,
    open_envelope,
    seal_envelope,
    select_prunable,
)
from repro.reliability.faults import FaultInjector
from repro.reliability.retry import Retrier
from repro.reliability.sites import CHECKPOINT_WRITE
from repro.utils.validation import check_positive_int

if TYPE_CHECKING:  # import cycle: data.storage fires sites from here
    from repro.data.storage import ChunkStorage

#: File magic identifying a platform checkpoint. Format 2: logs ride
#: as segment refs (``PlatformCheckpoint.logs``), not inside ``state``.
#: Format 3: ``state`` holds trigger states (the platform's
#: ``triggers`` list, a retraining deployment's ``trigger``) where it
#: held a ``scheduler`` and per-subclass keys. Format 4: a fleet
#: tenant's platform holds one trigger, its slot grant (slots and the
#: drift window), where it held a static schedule's, and the tenant
#: keeps no error list of its own. An older directory is refused by
#: name, not half-read — a checkpoint is one run's crash artifact, not
#: an interchange format.
CHECKPOINT_MAGIC = b"REPRO-CKPT-4\n"

#: File magic identifying a spilled chunk payload.
CHUNK_MAGIC = b"REPRO-CHUNK-1\n"


@dataclass(frozen=True)
class CheckpointConfig:
    """Where, how often, and how many checkpoints to keep."""

    directory: PathLike
    cadence_chunks: int = 10
    keep: int = 3

    def __post_init__(self) -> None:
        check_positive_int(self.cadence_chunks, "cadence_chunks")
        check_positive_int(self.keep, "keep")


@dataclass
class PlatformCheckpoint:
    """All run state at one stream position.

    ``cursor`` is the number of stream chunks fully processed;
    recovery resumes reading at exactly that offset. ``state`` nests
    the component state dicts (shape owned by whoever wrote the
    checkpoint — the deployment loop or the platform); ``manifest`` is
    the storage manifest when the run has chunk storage; ``logs`` maps
    each append-only log to the packs holding its segments, oldest
    first, when the run keeps any. The store fills in the last two.
    """

    cursor: int
    approach: str
    bundle: DeploymentBundle
    state: Dict[str, Any] = field(default_factory=dict)
    manifest: Optional[Dict[str, Any]] = None
    logs: Optional[Dict[str, List[str]]] = None

    def __post_init__(self) -> None:
        if self.cursor < 0:
            raise ReliabilityError(
                f"cursor must be >= 0, got {self.cursor}"
            )


def as_store(
    checkpoint: Union[
        "CheckpointStore", CheckpointConfig, PathLike, None
    ],
    telemetry: Optional[Telemetry] = None,
    fault_injector: Optional[FaultInjector] = None,
    retrier: Optional[Retrier] = None,
) -> Optional["CheckpointStore"]:
    """Normalize a ``checkpoint=`` option into a store (or ``None``).

    Accepts an existing store, a :class:`CheckpointConfig`, or a bare
    directory path (default cadence/retention).
    """
    if checkpoint is None:
        return None
    if isinstance(checkpoint, CheckpointStore):
        return checkpoint
    if not isinstance(checkpoint, CheckpointConfig):
        checkpoint = CheckpointConfig(directory=checkpoint)
    return CheckpointStore(
        checkpoint,
        telemetry=telemetry,
        fault_injector=fault_injector,
        retrier=retrier,
    )


class CheckpointStore:
    """One checkpoint directory: write, load-with-fallback, prune."""

    def __init__(
        self,
        config: Union[CheckpointConfig, PathLike],
        telemetry: Optional[Telemetry] = None,
        fault_injector: Optional[FaultInjector] = None,
        retrier: Optional[Retrier] = None,
    ) -> None:
        if not isinstance(config, CheckpointConfig):
            config = CheckpointConfig(directory=config)
        self.config = config
        self.directory = Path(config.directory)
        self.telemetry = (
            telemetry if telemetry is not None else NULL_TELEMETRY
        )
        self.fault_injector = fault_injector
        self.retrier = retrier
        # Spill index of the chunks the storage held at the last
        # write (or restore): timestamp -> the pack file holding the
        # payload. Raw chunks are immutable per timestamp. Feature
        # payloads are immutable objects — re-materialization after
        # an eviction builds a *new* chunk (with today's pipeline
        # statistics) — so for them identity is exactly the right
        # key, held as a weakref beside the pack name.
        self._spilled_raw: Dict[int, str] = {}
        self._spilled_features: Dict[
            int, Tuple["weakref.ref", str]
        ] = {}
        # Likewise per append-only log: how many of its entries are
        # on disk, and in which packs (oldest first).
        self._spilled_logs: Dict[str, Tuple[int, List[str]]] = {}

    @property
    def cadence(self) -> int:
        return self.config.cadence_chunks

    @property
    def keep(self) -> int:
        return self.config.keep

    @property
    def chunks_directory(self) -> Path:
        return self.directory / "chunks"

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def write(
        self,
        checkpoint: PlatformCheckpoint,
        storage: Optional[ChunkStorage] = None,
        logs: Optional[Dict[str, List[Any]]] = None,
    ) -> Path:
        """Persist a checkpoint atomically; returns its path.

        With ``storage``, the cache manifest is captured into the
        checkpoint and the not-yet-spilled chunk payloads are written
        to the ``chunks/`` area first, as one pack of raw and one of
        feature chunks (append-only: payloads are immutable, so
        earlier packs are referenced, never rewritten). With ``logs``
        (live append-only lists by name), what each gained since the
        last write rides in the raw pack — like a raw chunk it is
        never evicted and every later checkpoint needs it, so it
        costs no file of its own — and the checkpoint carries the
        segment refs. The refs sidecar lands before the checkpoint
        file so retention GC always knows what a checkpoint needs.
        Old checkpoints beyond ``keep`` are pruned afterwards.
        """
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
            json.dumps(
                {"cursor": checkpoint.cursor, "chunks": refs}
            ).encode(),
        )
        blob = seal_envelope(checkpoint, CHECKPOINT_MAGIC)
        path = self.directory / f"{name}.ckpt"

        def attempt() -> Path:
            if self.fault_injector is not None:
                self.fault_injector.fire(CHECKPOINT_WRITE)
                data = self.fault_injector.corrupt(
                    CHECKPOINT_WRITE, blob
                )
            else:
                data = blob
            return atomic_write_bytes(path, data)

        if self.retrier is not None:
            self.retrier.call(attempt, site=CHECKPOINT_WRITE)
        else:
            attempt()
        self.telemetry.tracer.point(
            names.RELIABILITY_CHECKPOINT_WRITTEN,
            cursor=checkpoint.cursor,
            bytes=len(blob),
            path=str(path),
        )
        self.prune()
        return path

    def _spill_storage(
        self, storage: ChunkStorage, cursor: int, tails: Dict[str, Any]
    ) -> Tuple[Dict[str, Any], List[str], Optional[str]]:
        """Capture the manifest and spill the missing payloads (the
        raw pack takes ``tails`` along); also returns that pack."""
        manifest = storage.manifest()
        raw_pack = self._write_pack(
            "raw",
            cursor,
            {
                **tails,
                **{
                    timestamp: storage.peek_raw(timestamp)
                    for timestamp in manifest["raw"]
                    if timestamp not in self._spilled_raw
                },
            },
        )
        self._spilled_raw = {
            timestamp: self._spilled_raw.get(timestamp, raw_pack)
            for timestamp in manifest["raw"]
        }
        manifest["raw_files"] = list(self._spilled_raw.values())

        materialized = [
            entry for entry in manifest["features"] if entry["materialized"]
        ]
        spilled: Dict[int, Tuple["weakref.ref", str]] = {}
        fresh: Dict[int, FeatureChunk] = {}
        for entry in materialized:
            timestamp = entry["timestamp"]
            chunk = storage.peek_features(timestamp)
            cached = self._spilled_features.get(timestamp)
            if cached is not None and cached[0]() is chunk:
                spilled[timestamp] = cached
            else:
                fresh[timestamp] = chunk
        pack = self._write_pack("feat", cursor, fresh)
        for timestamp, chunk in fresh.items():
            spilled[timestamp] = (weakref.ref(chunk), pack)
        self._spilled_features = spilled
        for entry in materialized:
            entry["payload_file"] = spilled[entry["timestamp"]][1]
        refs = set(manifest["raw_files"])
        refs.update(entry["payload_file"] for entry in materialized)
        return manifest, sorted(refs), raw_pack

    def _log_tails(self, logs: Dict[str, List[Any]]) -> Dict[str, Any]:
        """What each log gained since the last write (or restore)."""
        tails: Dict[str, Any] = {}
        for key, log in logs.items():
            spilled = self._spilled_logs.setdefault(key, (0, []))[0]
            if len(log) < spilled:
                raise ReliabilityError(
                    f"log {key!r} shrank from {spilled} to {len(log)} "
                    f"entries between checkpoints; it must be "
                    f"append-only"
                )
            if len(log) > spilled:
                tails[key] = log[spilled:]
        return tails

    def _log_refs(
        self, logs: Dict[str, List[Any]], tails: Dict[str, Any], pack: str
    ) -> Dict[str, List[str]]:
        """Note ``tails`` as spilled in ``pack``; every log's segment
        refs, oldest first."""
        for key, tail in tails.items():
            spilled, files = self._spilled_logs[key]
            self._spilled_logs[key] = (spilled + len(tail), files + [pack])
        return {key: self._spilled_logs[key][1] for key in logs}

    def _write_pack(
        self, kind: str, cursor: int, chunks: Dict[Any, Any]
    ) -> Optional[str]:
        """One envelope holding ``chunks`` by timestamp (and log tails
        by log name); its file name, or ``None`` when there is nothing
        to spill. The name carries the content digest, so a pack is never
        overwritten with other bytes (a recovered run re-writing a
        cursor meets its own)."""
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

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def checkpoints(self) -> List[Path]:
        """Checkpoint files, oldest (lowest cursor) first."""
        if not self.directory.is_dir():
            return []
        return sorted(self.directory.glob("ckpt-*.ckpt"))

    def load(self, path: PathLike) -> PlatformCheckpoint:
        """Load and verify one checkpoint file."""
        path = Path(path)
        try:
            blob = path.read_bytes()
        except OSError as error:
            raise PersistenceError(
                f"cannot read checkpoint {path}: {error}"
            ) from error
        checkpoint = open_envelope(
            blob, CHECKPOINT_MAGIC, source=str(path)
        )
        if not isinstance(checkpoint, PlatformCheckpoint):
            raise PersistenceError(
                f"{path} does not contain a PlatformCheckpoint"
            )
        return checkpoint

    def load_latest(self) -> PlatformCheckpoint:
        """Newest checkpoint that passes verification.

        Corrupted or truncated checkpoints are skipped (with a
        ``reliability.checkpoint_corrupt`` trace point), falling back
        to older ones; :class:`~repro.exceptions.ReliabilityError` when
        none survive, naming why the newest was refused (a directory
        written in an older checkpoint format says so here).
        """
        paths = self.checkpoints()
        newest: Optional[PersistenceError] = None
        for path in reversed(paths):
            try:
                return self.load(path)
            except PersistenceError as error:
                newest = newest or error
                self.telemetry.tracer.point(
                    names.RELIABILITY_CHECKPOINT_CORRUPT,
                    path=str(path),
                    error=str(error),
                )
        raise ReliabilityError(
            f"no valid checkpoint under {self.directory} "
            f"({len(paths)} file(s) inspected)"
            + (f"; newest: {newest}" if newest else "")
        ) from newest

    # ------------------------------------------------------------------
    # Storage reassembly
    # ------------------------------------------------------------------
    def restore_storage(
        self, storage: ChunkStorage, manifest: Dict[str, Any]
    ) -> None:
        """Rebuild a :class:`ChunkStorage` from a checkpoint manifest,
        and this store's spill index with it, so the resumed run's
        next checkpoint spills only what arrives after this one."""
        packs: Dict[str, Dict[int, Any]] = {}

        def load(name: str, timestamp: int):
            if name not in packs:
                packs[name] = self._load_pack(name)
            return packs[name][timestamp]

        self._spilled_raw = dict(
            zip(manifest["raw"], manifest["raw_files"])
        )
        raw: List[RawChunk] = [
            load(name, timestamp)
            for timestamp, name in self._spilled_raw.items()
        ]
        self._spilled_features = {}
        features: List[Union[FeatureChunk, ChunkStub]] = []
        for entry in manifest["features"]:
            timestamp = entry["timestamp"]
            if entry["materialized"]:
                name = entry["payload_file"]
                chunk = load(name, timestamp)
                self._spilled_features[timestamp] = (
                    weakref.ref(chunk),
                    name,
                )
                features.append(chunk)
            else:
                features.append(
                    ChunkStub(
                        timestamp=timestamp,
                        raw_reference=entry["raw_reference"],
                    )
                )
        storage.restore(raw, features, manifest["stats"])

    def restore_logs(
        self, refs: Dict[str, List[str]]
    ) -> Dict[str, List[Any]]:
        """Reassemble every log from its segments, and this store's
        spill index with it (as :meth:`restore_storage` does)."""
        packs: Dict[str, Dict[Any, Any]] = {}
        logs: Dict[str, List[Any]] = {}
        for key, files in refs.items():
            log = logs[key] = []
            for name in files:
                if name not in packs:
                    packs[name] = self._load_pack(name)
                log.extend(packs[name][key])
            self._spilled_logs[key] = (len(log), list(files))
        return logs

    def _load_pack(self, name: str) -> Dict[Any, Any]:
        path = self.chunks_directory / name
        try:
            blob = path.read_bytes()
        except OSError as error:
            raise ReliabilityError(
                f"checkpoint references missing chunk payload "
                f"{path}: {error}"
            ) from error
        return open_envelope(blob, CHUNK_MAGIC, source=str(path))

    # ------------------------------------------------------------------
    # Retention
    # ------------------------------------------------------------------
    def prune(self) -> List[Path]:
        """Keep the newest ``keep`` checkpoints; GC orphaned payloads.

        Chunk-payload GC is conservative: it only runs when every
        retained checkpoint has a refs sidecar (otherwise nothing can
        be proven unreferenced).
        """
        paths = self.checkpoints()
        dropped = select_prunable(paths, self.keep)
        for path in dropped:
            path.unlink(missing_ok=True)
            self._refs_path(path).unlink(missing_ok=True)
        retained = [p for p in paths if p not in dropped]
        referenced: Set[str] = set()
        for path in retained:
            refs_path = self._refs_path(path)
            try:
                payload = json.loads(refs_path.read_text())
            except (OSError, ValueError):
                return dropped  # conservative: skip chunk GC
            referenced.update(payload.get("chunks", []))
        if self.chunks_directory.is_dir():
            # sorted: deterministic unlink order (reprolint REP010).
            for orphan in sorted(self.chunks_directory.iterdir()):
                if (
                    orphan.name not in referenced
                    and not orphan.name.endswith(".tmp")
                ):
                    orphan.unlink(missing_ok=True)
        # Stale refs sidecars whose checkpoint is gone.
        for refs_path in sorted(self.directory.glob("ckpt-*.refs.json")):
            ckpt = refs_path.with_name(
                refs_path.name.replace(".refs.json", ".ckpt")
            )
            if not ckpt.exists():
                refs_path.unlink(missing_ok=True)
        return dropped

    @staticmethod
    def _refs_path(checkpoint_path: Path) -> Path:
        return checkpoint_path.with_name(
            checkpoint_path.stem + ".refs.json"
        )

    def __repr__(self) -> str:
        return (
            f"CheckpointStore({str(self.directory)!r}, "
            f"cadence={self.cadence}, keep={self.keep})"
        )

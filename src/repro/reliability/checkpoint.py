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
    <dir>/chunks/pack-00000012-<digest>.pkl
                                    what checkpoint 12 was the first to
                                    hold, one envelope: the raw chunks,
                                    the feature chunks and what every
                                    append-only log gained since
                                    checkpoint 11
    <dir>/chunks/feat-00000012-<digest>.pkl
                                    its feature chunks instead, when
                                    the storage can evict them

A checkpoint is one pack and one envelope, written in that order, each
atomically (staged, ``fsync``, ``os.replace``): two ``fsync`` waits
however many chunks arrived since the last one, and a durable envelope
never names a pack that is not durable yet. A pack's name carries the
SHA-256 its own seal computed (it is hashed once), so a recovered run
re-writing a cursor meets its own bytes. Payloads are content-immutable
and written once; later checkpoints reference the pack, never rewrite
it. A
storage that can evict (:attr:`~repro.data.storage.ChunkStorage.can_evict`)
keeps its feature chunks in a pack of their own (three waits), because
an evicted payload's pack must be collectable while the raw chunks
beside it live on; that is the only exception.

An append-only log (the lineage ledger's entries, the monitor's
snapshots) is handed over as the owner's *live* list; the store
remembers how many entries of it are on disk, packs ``log[spilled:]``
and the envelope carries, per log, the ordered pack names whose
segments concatenate to it. :meth:`CheckpointStore.restore_logs`
rebuilds the count, so a resumed run spills only what it appends. Log
tails and chunks share packs, so one restore passes one ``packs``
mapping to both ``restore_logs`` and ``restore_storage`` and opens each
pack once.

Retention keeps the newest ``keep`` checkpoints (the shared
:func:`~repro.persistence.select_prunable` policy) and collects a pack
once no retained checkpoint references it. The store knows what each
retained checkpoint references (:meth:`CheckpointStore.references`,
read from the envelope), so a write lists no directory and reads no
file back. Only the first write of a store lists the directory: it
rebuilds those references from the envelopes on disk, sweeps stale
``*.tmp`` staging files, and leaves the packs no envelope references
to the next prune.

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

import os
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    FrozenSet,
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
#: keeps no error list of its own. Format 5: one pack a checkpoint,
#: no refs sidecar, and a manifest of columns (pack indices, not a
#: pack name a chunk). An older directory is refused by name, not
#: half-read — a checkpoint is one run's crash artifact, not an
#: interchange format.
CHECKPOINT_MAGIC = b"REPRO-CKPT-5\n"

#: File magic identifying a pack of spilled payloads: a dict of up to
#: three sections, ``raw`` and ``features`` (chunks by timestamp) and
#: ``logs`` (tails by log name).
CHUNK_MAGIC = b"REPRO-CHUNK-2\n"


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
    the storage manifest when the run has chunk storage (columns, see
    :meth:`~repro.data.storage.ChunkStorage.manifest`, plus ``packs``
    and each chunk's index into it); ``logs`` maps each append-only log
    to the packs holding its segments, oldest first, when the run keeps
    any. The store fills in the last two.
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


def _forget(kept: List[int], *indexes: Dict[int, Any]) -> None:
    """Drop every entry of ``indexes`` whose timestamp is not ``kept``."""
    kept = set(kept)
    for index in indexes:
        for timestamp in sorted(index.keys() - kept):
            del index[timestamp]


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
        # key: ``_spilled_payloads`` holds a weakref to the object
        # spilled, ``_spilled_features`` its pack.
        self._spilled_raw: Dict[int, str] = {}
        self._spilled_features: Dict[int, str] = {}
        self._spilled_payloads: Dict[int, "weakref.ref"] = {}
        # Likewise per append-only log: how many of its entries are
        # on disk, and in which packs (oldest first).
        self._spilled_logs: Dict[str, Tuple[int, List[str]]] = {}
        # Checkpoint file name -> the packs it references, oldest
        # checkpoint first; ``None`` until the first write read the
        # directory. Packs on disk that no checkpoint referenced then
        # wait in ``_unreferenced`` for the next prune.
        self._retained: Optional[Dict[str, FrozenSet[str]]] = None
        self._unreferenced: Set[str] = set()

    @property
    def cadence(self) -> int:
        return self.config.cadence_chunks

    @property
    def keep(self) -> int:
        return self.config.keep

    @property
    def chunks_directory(self) -> Path:
        return self.directory / "chunks"

    @staticmethod
    def references(checkpoint: PlatformCheckpoint) -> FrozenSet[str]:
        """The pack files ``checkpoint`` reads."""
        refs: Set[str] = set()
        if checkpoint.manifest is not None:
            refs.update(checkpoint.manifest["packs"])
        for files in (checkpoint.logs or {}).values():
            refs.update(files)
        return frozenset(refs)

    @property
    def retained(self) -> Dict[Path, FrozenSet[str]]:
        """Each checkpoint this store retains, oldest first, with the
        packs it references (empty before the first write)."""
        return {
            self.directory / name: refs
            for name, refs in (self._retained or {}).items()
        }

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
        checkpoint and the chunk payloads no earlier checkpoint
        spilled go into this checkpoint's pack (append-only: payloads
        are immutable, so earlier packs are referenced, never
        rewritten). With ``logs`` (live append-only lists by name),
        what each gained since the last write rides in the same pack
        and the checkpoint carries the segment refs. The pack is
        durable before the envelope is written. Old checkpoints beyond
        ``keep`` are pruned afterwards.
        """
        retained = self._retained
        if retained is None:
            retained = self._retained = self._scan()
        tails = self._log_tails(logs or {})
        pack = self._spill(checkpoint, storage, tails)
        if logs:
            checkpoint.logs = self._log_refs(logs, tails, pack)
        blob = seal_envelope(checkpoint, CHECKPOINT_MAGIC)
        path = self.directory / f"ckpt-{checkpoint.cursor:08d}.ckpt"

        def attempt() -> Path:
            if self.fault_injector is not None:
                self.fault_injector.fire(CHECKPOINT_WRITE)
                data = self.fault_injector.corrupt(
                    CHECKPOINT_WRITE, blob
                )
            else:
                data = blob
            return atomic_write_bytes(path, data, sweep=False)

        if self.retrier is not None:
            self.retrier.call(attempt, site=CHECKPOINT_WRITE)
        else:
            attempt()
        newest = next(reversed(retained), None)
        retained[path.name] = self.references(checkpoint)
        if newest is not None and path.name < newest:
            self._retained = dict(sorted(retained.items()))
        self.telemetry.tracer.point(
            names.RELIABILITY_CHECKPOINT_WRITTEN,
            cursor=checkpoint.cursor,
            bytes=len(blob),
            path=str(path),
        )
        self.prune()
        return path

    def _spill(
        self,
        checkpoint: PlatformCheckpoint,
        storage: Optional[ChunkStorage],
        tails: Dict[str, Any],
    ) -> Optional[str]:
        """Write this checkpoint's pack(s) and, with ``storage``, its
        manifest; returns the pack name (``None``: nothing new)."""
        cursor = checkpoint.cursor
        if storage is None:
            return self._write_pack("pack", cursor, {"logs": tails})
        manifest = storage.manifest()
        stored = manifest["raw"]
        materialized = storage.materialized_timestamps
        spilled_raw = self._spilled_raw
        spilled_features = self._spilled_features
        payloads = self._spilled_payloads
        _forget(stored, spilled_raw)
        _forget(materialized, spilled_features, payloads)
        # Both orders are oldest first, so what arrived since the last
        # write is a suffix: walk back to the first chunk on disk. A
        # payload is on disk when the very object was spilled (one
        # re-materialized after an eviction is a new object).
        raw: Dict[int, RawChunk] = {}
        for timestamp in reversed(stored):
            if timestamp in spilled_raw:
                break
            raw[timestamp] = storage.peek_raw(timestamp)
        fresh: Dict[int, FeatureChunk] = {}
        for timestamp in reversed(materialized):
            chunk = storage.peek_features(timestamp)
            spilled = payloads.get(timestamp)
            if spilled is not None and spilled() is chunk:
                break
            fresh[timestamp] = chunk
        raw = dict(reversed(raw.items()))
        fresh = dict(reversed(fresh.items()))
        if storage.can_evict:
            apart = self._write_pack("feat", cursor, {"features": fresh})
            pack = self._write_pack(
                "pack", cursor, {"raw": raw, "logs": tails}
            )
        else:
            pack = apart = self._write_pack(
                "pack", cursor, {"raw": raw, "features": fresh, "logs": tails}
            )
        spilled_raw.update(dict.fromkeys(raw, pack))
        spilled_features.update(dict.fromkeys(fresh, apart))
        payloads.update(zip(fresh, map(weakref.ref, fresh.values())))

        # The pack of every chunk, as an index into ``packs``.
        raw_files = list(map(spilled_raw.__getitem__, stored))
        payload_files = list(
            map(spilled_features.get, manifest["features"])
        )
        packs = list(dict.fromkeys(raw_files + payload_files))
        if None in packs:  # a stub: no payload
            packs.remove(None)
        index = dict(zip(packs, range(len(packs))))
        index[None] = -1
        manifest["packs"] = packs
        manifest["raw_pack"] = list(map(index.__getitem__, raw_files))
        manifest["feature_pack"] = list(
            map(index.__getitem__, payload_files)
        )
        checkpoint.manifest = manifest
        return pack

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
        self, kind: str, cursor: int, sections: Dict[str, Dict[Any, Any]]
    ) -> Optional[str]:
        """One envelope holding the non-empty ``sections``; its file
        name, or ``None`` when there is nothing to spill. The name
        carries the digest the envelope was sealed with, so a pack is
        never overwritten with other bytes (a recovered run re-writing
        a cursor meets its own)."""
        sections = {key: value for key, value in sections.items() if value}
        if not sections:
            return None
        blob = seal_envelope(sections, CHUNK_MAGIC)
        digest = blob[len(CHUNK_MAGIC) : len(CHUNK_MAGIC) + 8].hex()
        name = f"{kind}-{cursor:08d}-{digest}.pkl"
        target = self.chunks_directory / name
        if not target.exists():
            self.chunks_directory.mkdir(exist_ok=True)
            atomic_write_bytes(target, blob, sweep=False)
        return name

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def checkpoints(self) -> List[Path]:
        """Checkpoint files on disk, oldest (lowest cursor) first."""
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
        self,
        storage: ChunkStorage,
        manifest: Dict[str, Any],
        packs: Optional[Dict[str, Dict[str, Any]]] = None,
    ) -> None:
        """Rebuild a :class:`ChunkStorage` from a checkpoint manifest,
        and this store's spill index with it, so the resumed run's
        next checkpoint spills only what arrives after this one.
        ``packs`` (name -> opened pack) is what one restore has read
        so far; pass :meth:`restore_logs`'s so no pack is read twice."""
        names = manifest["packs"]
        packs = self._load_packs(names, {} if packs is None else packs)
        self._spilled_raw = {}
        raw: List[RawChunk] = []
        for timestamp, index in zip(manifest["raw"], manifest["raw_pack"]):
            self._spilled_raw[timestamp] = names[index]
            raw.append(packs[index]["raw"][timestamp])
        self._spilled_features = {}
        self._spilled_payloads = {}
        features: List[Union[FeatureChunk, ChunkStub]] = []
        for timestamp, reference, index in zip(
            manifest["features"],
            manifest["raw_reference"],
            manifest["feature_pack"],
        ):
            if index < 0:
                features.append(ChunkStub(timestamp, reference))
                continue
            chunk = packs[index]["features"][timestamp]
            self._spilled_features[timestamp] = names[index]
            self._spilled_payloads[timestamp] = weakref.ref(chunk)
            features.append(chunk)
        storage.restore(raw, features, manifest["stats"])

    def restore_logs(
        self,
        refs: Dict[str, List[str]],
        packs: Optional[Dict[str, Dict[str, Any]]] = None,
    ) -> Dict[str, List[Any]]:
        """Reassemble every log from its segments, and this store's
        spill index with it (as :meth:`restore_storage` does, and with
        its ``packs``)."""
        packs = {} if packs is None else packs
        logs: Dict[str, List[Any]] = {}
        for key, files in refs.items():
            log = logs[key] = []
            for pack in self._load_packs(files, packs):
                log.extend(pack["logs"][key])
            self._spilled_logs[key] = (len(log), list(files))
        return logs

    def _load_packs(
        self, names: List[str], packs: Dict[str, Dict[str, Any]]
    ) -> List[Dict[str, Any]]:
        """The packs ``names``; one not yet in ``packs`` is read into it."""
        for name in names:
            if name not in packs:
                packs[name] = self._load_pack(name)
        return [packs[name] for name in names]

    def _load_pack(self, name: str) -> Dict[str, Any]:
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
    def _scan(self) -> Dict[str, FrozenSet[str]]:
        """What the directory already holds, read once (the first
        write): each checkpoint's references from its envelope (none
        for one that does not load — it can never be restored), the
        packs nothing references (for the next prune), and stale
        ``*.tmp`` staging files, which are deleted."""
        self.directory.mkdir(parents=True, exist_ok=True)
        retained: Dict[str, FrozenSet[str]] = {}
        for path in self.checkpoints():
            try:
                retained[path.name] = self.references(self.load(path))
            except PersistenceError:
                retained[path.name] = frozenset()
        live = frozenset().union(*retained.values())
        for directory in (self.directory, self.chunks_directory):
            if not directory.is_dir():
                continue
            for name in sorted(os.listdir(directory)):
                if name.endswith(".tmp"):
                    (directory / name).unlink(missing_ok=True)
                elif directory != self.directory and name not in live:
                    self._unreferenced.add(name)
        return retained

    def prune(self) -> List[Path]:
        """Keep the newest ``keep`` checkpoints; collect each pack no
        retained checkpoint references any more. Returns the dropped
        checkpoints' paths."""
        retained = self._retained
        if retained is None:
            retained = self._retained = self._scan()
        dropped = select_prunable(list(retained), self.keep)
        orphans = self._unreferenced
        self._unreferenced = set()
        for name in dropped:
            (self.directory / name).unlink(missing_ok=True)
            orphans.update(retained.pop(name))
        if orphans:
            orphans.difference_update(*retained.values())
            for name in sorted(orphans):
                (self.chunks_directory / name).unlink(missing_ok=True)
        return [self.directory / name for name in dropped]

    def __repr__(self) -> str:
        return (
            f"CheckpointStore({str(self.directory)!r}, "
            f"cadence={self.cadence}, keep={self.keep})"
        )

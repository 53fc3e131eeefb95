"""Platform checkpoints: capture, atomic persistence, bounded retention.

A :class:`PlatformCheckpoint` extends the
:class:`~repro.persistence.DeploymentBundle` (pipeline + model +
optimizer) with everything else a run mutates: the stream cursor,
component state dicts (scheduler, sampler RNG, cost tracker, drift
detectors, …), the materialization-cache manifest, and (for telemetry
byte-identity) the metrics-registry state.

A :class:`CheckpointStore` owns one checkpoint directory, one file a
checkpoint::

    <dir>/ckpt-00000012.ckpt
        section   the raw chunks and log tails    what checkpoint 12
        section   the feature chunks              was the first to hold
        envelope  the PlatformCheckpoint
        trailer   the envelope's offset (8 bytes) + CHECKPOINT_MAGIC

Sections and envelope are each a checksummed
:func:`~repro.persistence.seal_envelope` blob (an empty section is left
out). A write stages the whole file, fsyncs it once and renames it into
place: one ``fsync`` however many chunks arrived since the last
checkpoint. An envelope names payloads by section — ``(file, offset,
size)`` — in its own file and in earlier ones: a chunk spilled once is
referenced by every later checkpoint that still holds it, never
written again. The earlier files were durable before this one was
staged and this file's sections become durable with its envelope, so a
durable envelope never names a payload that is not durable yet. A
cursor written twice by one store spills again what the file it
replaces held.

Retention keeps the newest ``keep`` checkpoints (the shared
:func:`~repro.persistence.select_prunable` policy). A checkpoint that
leaves them is *cut*: ``os.truncate`` shortens its file to the end of
the last section a retained envelope still names, which drops its
envelope and trailer (and its feature section, once those chunks are
evicted — that is why raw chunks come first); the file is unlinked
once no retained envelope names any of it. Nothing is rewritten and
nothing more is fsynced. Cuts run after the new checkpoint's rename,
newest file first, so an envelope is always cut before a payload only
it names; a process killed between a rename and a cut leaves one more
loadable checkpoint than ``keep``, which the next store's first write
cuts. A cut file is a payload file: :meth:`CheckpointStore.checkpoints`
does not list it. On disk this is the payload bytes one pack a
checkpoint held (format 5) plus a 21-byte trailer: a file lives as
long as a retained envelope names a section of it — log tails keep its
first section alive — and a dropped envelope goes with its cut. At the
end of a bench-scale ``url_stack`` run the directory holds 14,193,672
bytes (14,358,848 in format 5), and the envelope at cursor 600 is
147,868 bytes (229,432 with the histories, outcomes and resolved
incidents in its state).

An append-only log (the lineage ledger's entries, the monitor's
snapshots and resolved incidents, the deployment's error and cost
histories, the platform's proactive outcomes) is handed over as the
owner's *live* list; the store remembers how many entries of it are
on disk, spills ``log[spilled:]`` into the first section and the
envelope carries, per log, the ordered sections whose segments
concatenate to it. :meth:`CheckpointStore.restore_logs` rebuilds the
count, so a resumed run spills only what it appends. Log tails and
raw chunks share a section, so one restore passes one ``sections``
mapping to both ``restore_logs`` and ``restore_storage`` and reads
each section once.

The store knows what each retained checkpoint references
(:meth:`CheckpointStore.references`, read from the envelope) and how
long each file is, so a write lists no directory and reads no file
back. Only the first write of a store lists the directory: it rebuilds
those references from the envelopes on disk, sweeps stale ``*.tmp``
staging files, and leaves the payload files no envelope references to
the next prune.

Feature payloads *must* be persisted rather than re-derived: a
materialized chunk embeds the pipeline statistics as of its ingest
time, so re-running today's pipeline over the raw chunk would produce
different bytes — and different downstream training results — than the
uninterrupted run. The manifest stores ids; the sections store
the arrays; recovery reassembles the exact cache.

Loading falls back: :meth:`CheckpointStore.load_latest` walks
checkpoints newest-first and skips any that fail their checksum, so a
corrupted latest checkpoint degrades recovery to the previous one
instead of failing it.
"""

from __future__ import annotations

import os
import struct
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
    seal_parts,
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
#: pack name a chunk). Format 6: one file a checkpoint, its sections
#: then its envelope then a trailer; refs are sections, not pack
#: files; the error and cost histories, the proactive outcomes and the
#: monitor's resolved incidents are logs, not ``state``. An older
#: directory holds no file ending in this format's trailer, so no
#: checkpoint this store lists: nothing is half-read — a checkpoint is
#: one run's crash artifact, not an interchange format.
CHECKPOINT_MAGIC = b"REPRO-CKPT-6\n"

#: File magic identifying a section of spilled payloads: a dict of up
#: to three keys, ``raw`` and ``features`` (chunks by timestamp) and
#: ``logs`` (tails by log name).
CHUNK_MAGIC = b"REPRO-CHUNK-2\n"

#: A checkpoint file ends in the offset of its envelope, then the
#: magic: a file that does not is a payload file (or no checkpoint).
_OFFSET = struct.Struct(">Q")
_TRAILER_SIZE = _OFFSET.size + len(CHECKPOINT_MAGIC)

#: A payload section: ``(file name, offset, size)``.
Section = Tuple[str, int, int]


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
    :meth:`~repro.data.storage.ChunkStorage.manifest`, plus
    ``sections`` and each chunk's index into it); ``logs`` maps each
    append-only log to the sections holding its segments, oldest
    first, when the run keeps any. The store fills in the last two.
    """

    cursor: int
    approach: str
    bundle: DeploymentBundle
    state: Dict[str, Any] = field(default_factory=dict)
    manifest: Optional[Dict[str, Any]] = None
    logs: Optional[Dict[str, List[Section]]] = None

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
        # write (or restore): timestamp -> the section holding the
        # payload. Raw chunks are immutable per timestamp. Feature
        # payloads are immutable objects — re-materialization after
        # an eviction builds a *new* chunk (with today's pipeline
        # statistics) — so for them identity is exactly the right
        # key: ``_spilled_payloads`` holds a weakref to the object
        # spilled, ``_spilled_features`` its section.
        self._spilled_raw: Dict[int, Section] = {}
        self._spilled_features: Dict[int, Section] = {}
        self._spilled_payloads: Dict[int, "weakref.ref"] = {}
        # Likewise per append-only log: how many of its entries are
        # on disk, and in which sections (oldest first).
        self._spilled_logs: Dict[str, Tuple[int, List[Section]]] = {}
        # Checkpoint file name -> the sections its envelope names,
        # oldest checkpoint first; ``None`` until the first write read
        # the directory. ``_sizes`` is every checkpoint or payload
        # file on disk with its length; ``_stale`` the files that may
        # hold bytes no retained envelope names, for the next prune.
        self._retained: Optional[Dict[str, FrozenSet[Section]]] = None
        self._sizes: Dict[str, int] = {}
        self._stale: Set[str] = set()

    @property
    def cadence(self) -> int:
        return self.config.cadence_chunks

    @property
    def keep(self) -> int:
        return self.config.keep

    @staticmethod
    def references(checkpoint: PlatformCheckpoint) -> FrozenSet[Section]:
        """The sections ``checkpoint`` reads."""
        refs: Set[Section] = set()
        if checkpoint.manifest is not None:
            refs.update(checkpoint.manifest["sections"])
        for sections in (checkpoint.logs or {}).values():
            refs.update(sections)
        return frozenset(refs)

    @property
    def retained(self) -> Dict[Path, FrozenSet[Section]]:
        """Each checkpoint this store retains, oldest first, with the
        sections it references (empty before the first write)."""
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
        spilled go into this checkpoint's file (append-only: payloads
        are immutable, so earlier sections are referenced, never
        rewritten). With ``logs`` (live append-only lists by name),
        what each gained since the last write rides in the same file
        and the checkpoint carries the segment refs. Sections,
        envelope and trailer are staged as one file, fsynced once and
        renamed into place. Old checkpoints beyond ``keep`` are cut
        afterwards.
        """
        retained = self._retained
        if retained is None:
            retained = self._retained = self._scan()
        path = self.directory / f"ckpt-{checkpoint.cursor:08d}.ckpt"
        if path.name in self._sizes:
            self._reclaim(path.name)
        tails = self._log_tails(logs or {})
        parts, first = self._spill(checkpoint, storage, tails, path.name)
        if logs:
            checkpoint.logs = self._log_refs(logs, tails, first)
        offset = sum(map(len, parts))
        header, payload = seal_parts(checkpoint, CHECKPOINT_MAGIC)
        trailer = _OFFSET.pack(offset) + CHECKPOINT_MAGIC

        def attempt() -> Path:
            envelope = [header, payload]
            if self.fault_injector is not None:
                self.fault_injector.fire(CHECKPOINT_WRITE)
                envelope = [
                    self.fault_injector.corrupt(
                        CHECKPOINT_WRITE, header + payload
                    )
                ]
            return atomic_write_bytes(
                path, [*parts, *envelope, trailer], sweep=False
            )

        if self.retrier is not None:
            self.retrier.call(attempt, site=CHECKPOINT_WRITE)
        else:
            attempt()
        newest = next(reversed(retained), None)
        retained[path.name] = self.references(checkpoint)
        if newest is not None and path.name < newest:
            self._retained = dict(sorted(retained.items()))
        self._sizes[path.name] = (
            offset + len(header) + len(payload) + len(trailer)
        )
        self.telemetry.tracer.point(
            names.RELIABILITY_CHECKPOINT_WRITTEN,
            cursor=checkpoint.cursor,
            bytes=len(header) + len(payload),
            path=str(path),
        )
        self.prune()
        return path

    def _spill(
        self,
        checkpoint: PlatformCheckpoint,
        storage: Optional[ChunkStorage],
        tails: Dict[str, Any],
        name: str,
    ) -> Tuple[List[bytes], Optional[Section]]:
        """This checkpoint's sections, as the parts of file ``name``
        that go before its envelope, and the first of them (the one
        the log tails ride in); with ``storage``, its manifest too."""
        if storage is None:
            parts, (first,) = _seal_sections(name, {"logs": tails})
            return parts, first
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
        parts, (first, second) = _seal_sections(
            name, {"raw": raw, "logs": tails}, {"features": fresh}
        )
        spilled_raw.update(dict.fromkeys(raw, first))
        spilled_features.update(dict.fromkeys(fresh, second))
        payloads.update(zip(fresh, map(weakref.ref, fresh.values())))

        # The section of every chunk, as an index into ``sections``.
        raw_refs = list(map(spilled_raw.__getitem__, stored))
        payload_refs = list(
            map(spilled_features.get, manifest["features"])
        )
        sections = list(dict.fromkeys(raw_refs + payload_refs))
        if None in sections:  # a stub: no payload
            sections.remove(None)
        index = dict(zip(sections, range(len(sections))))
        index[None] = -1
        manifest["sections"] = sections
        manifest["raw_section"] = list(map(index.__getitem__, raw_refs))
        manifest["feature_section"] = list(
            map(index.__getitem__, payload_refs)
        )
        checkpoint.manifest = manifest
        return parts, first

    def _reclaim(self, name: str) -> None:
        """Forget what file ``name`` holds, because this write replaces
        it (a cursor written twice): its chunks and log tails are
        spilled again, into the new file."""
        for index in (self._spilled_raw, self._spilled_features):
            for timestamp, ref in list(index.items()):
                if ref[0] == name:
                    del index[timestamp]
                    self._spilled_payloads.pop(timestamp, None)
        for key, (count, sections) in self._spilled_logs.items():
            files = [ref[0] for ref in sections]
            if name in files:
                start = files.index(name)
                for ref in sections[start:]:
                    count -= len(self._load_section(ref)["logs"][key])
                self._spilled_logs[key] = (count, sections[:start])

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
        self,
        logs: Dict[str, List[Any]],
        tails: Dict[str, Any],
        section: Optional[Section],
    ) -> Dict[str, List[Section]]:
        """Note ``tails`` as spilled in ``section``; every log's
        segment refs, oldest first."""
        for key, tail in tails.items():
            spilled, sections = self._spilled_logs[key]
            self._spilled_logs[key] = (
                spilled + len(tail),
                sections + [section],
            )
        return {key: self._spilled_logs[key][1] for key in logs}

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def checkpoints(self) -> List[Path]:
        """Checkpoint files on disk (those ending in a trailer), oldest
        (lowest cursor) first; a cut file is a payload file, not one."""
        if not self.directory.is_dir():
            return []
        return [
            path
            for path in sorted(self.directory.glob("ckpt-*.ckpt"))
            if _trailer(path) is not None
        ]

    def load(self, path: PathLike) -> PlatformCheckpoint:
        """Load and verify one checkpoint file's envelope."""
        path = Path(path)
        try:
            with open(path, "rb") as handle:
                envelope = _trailer(path, handle)
                if envelope is None:
                    raise PersistenceError(
                        f"{path} ends in no checkpoint trailer (a cut "
                        f"checkpoint or no checkpoint at all)"
                    )
                offset, size = envelope
                handle.seek(offset)
                blob = handle.read(size)
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

        Corrupted checkpoints are skipped (with a
        ``reliability.checkpoint_corrupt`` trace point), falling back
        to older ones; :class:`~repro.exceptions.ReliabilityError` when
        none survive, naming why the newest was refused (an envelope
        written in another checkpoint format says so here).
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
        sections: Optional[Dict[Section, Dict[str, Any]]] = None,
    ) -> None:
        """Rebuild a :class:`ChunkStorage` from a checkpoint manifest,
        and this store's spill index with it, so the resumed run's
        next checkpoint spills only what arrives after this one.
        ``sections`` (ref -> opened section) is what one restore has
        read so far; pass :meth:`restore_logs`'s so none is read
        twice."""
        refs = manifest["sections"]
        opened = self._load_sections(
            refs, {} if sections is None else sections
        )
        self._spilled_raw = {}
        raw: List[RawChunk] = []
        for timestamp, index in zip(
            manifest["raw"], manifest["raw_section"]
        ):
            self._spilled_raw[timestamp] = refs[index]
            raw.append(opened[index]["raw"][timestamp])
        self._spilled_features = {}
        self._spilled_payloads = {}
        features: List[Union[FeatureChunk, ChunkStub]] = []
        for timestamp, reference, index in zip(
            manifest["features"],
            manifest["raw_reference"],
            manifest["feature_section"],
        ):
            if index < 0:
                features.append(ChunkStub(timestamp, reference))
                continue
            chunk = opened[index]["features"][timestamp]
            self._spilled_features[timestamp] = refs[index]
            self._spilled_payloads[timestamp] = weakref.ref(chunk)
            features.append(chunk)
        storage.restore(raw, features, manifest["stats"])

    def restore_logs(
        self,
        refs: Dict[str, List[Section]],
        sections: Optional[Dict[Section, Dict[str, Any]]] = None,
    ) -> Dict[str, List[Any]]:
        """Reassemble every log from its segments, and this store's
        spill index with it (as :meth:`restore_storage` does, and with
        its ``sections``)."""
        sections = {} if sections is None else sections
        logs: Dict[str, List[Any]] = {}
        for key, segments in refs.items():
            log = logs[key] = []
            for section in self._load_sections(segments, sections):
                log.extend(section["logs"][key])
            self._spilled_logs[key] = (len(log), list(segments))
        return logs

    def _load_sections(
        self,
        refs: List[Section],
        sections: Dict[Section, Dict[str, Any]],
    ) -> List[Dict[str, Any]]:
        """The sections ``refs``; one not yet in ``sections`` is read
        into it."""
        for ref in refs:
            if ref not in sections:
                sections[ref] = self._load_section(ref)
        return [sections[ref] for ref in refs]

    def _load_section(self, ref: Section) -> Dict[str, Any]:
        name, offset, size = ref
        path = self.directory / name
        try:
            with open(path, "rb") as handle:
                handle.seek(offset)
                blob = handle.read(size)
        except OSError as error:
            raise ReliabilityError(
                f"checkpoint references missing chunk payload "
                f"{path}: {error}"
            ) from error
        if len(blob) < size:
            raise ReliabilityError(
                f"checkpoint references missing chunk payload {path} "
                f"[{offset}, {offset + size}): the file ends at "
                f"{offset + len(blob)}"
            )
        return open_envelope(
            blob, CHUNK_MAGIC, source=f"{path}[{offset}:{offset + size}]"
        )

    # ------------------------------------------------------------------
    # Retention
    # ------------------------------------------------------------------
    def _scan(self) -> Dict[str, FrozenSet[Section]]:
        """What the directory already holds, read once (the first
        write): each checkpoint's references from its envelope (none
        for one that does not load — it can never be restored), each
        file's length, the payload files (to be cut by the next
        prune), and stale ``*.tmp`` staging files, which are
        deleted."""
        self.directory.mkdir(parents=True, exist_ok=True)
        retained: Dict[str, FrozenSet[Section]] = {}
        with os.scandir(self.directory) as listing:
            entries = sorted(listing, key=lambda entry: entry.name)
        for entry in entries:
            name = entry.name
            if name.endswith(".tmp"):
                os.unlink(entry.path)
                continue
            if not (name.startswith("ckpt-") and name.endswith(".ckpt")):
                continue
            self._sizes[name] = entry.stat().st_size
            path = self.directory / name
            if _trailer(path) is None:
                self._stale.add(name)
                continue
            try:
                retained[name] = self.references(self.load(path))
            except PersistenceError:
                retained[name] = frozenset()
        return retained

    def prune(self) -> List[Path]:
        """Keep the newest ``keep`` checkpoints; cut every other file
        to the sections a retained checkpoint still names (unlink it
        when that is none). Returns the dropped checkpoints' paths."""
        retained = self._retained
        if retained is None:
            retained = self._retained = self._scan()
        dropped = select_prunable(list(retained), self.keep)
        stale = self._stale
        self._stale = set()
        for name in dropped:
            stale.add(name)
            stale.update(ref[0] for ref in retained.pop(name))
        stale.difference_update(retained)
        if stale:
            ends: Dict[str, int] = dict.fromkeys(stale, 0)
            for refs in retained.values():
                for name, offset, size in refs:
                    if name in ends and offset + size > ends[name]:
                        ends[name] = offset + size
            # Newest file first: an envelope goes before what it names.
            for name in sorted(stale, reverse=True):
                self._cut(name, ends[name])
        return [self.directory / name for name in dropped]

    def _cut(self, name: str, end: int) -> None:
        """Shorten file ``name`` to ``end`` bytes; unlink it at 0."""
        size = self._sizes.get(name)
        if size is None or end >= size:
            return
        path = self.directory / name
        if end:
            os.truncate(path, end)
            self._sizes[name] = end
        else:
            path.unlink(missing_ok=True)
            del self._sizes[name]

    def __repr__(self) -> str:
        return (
            f"CheckpointStore({str(self.directory)!r}, "
            f"cadence={self.cadence}, keep={self.keep})"
        )


def _seal_sections(
    name: str, *contents: Dict[str, Dict[Any, Any]]
) -> Tuple[List[bytes], List[Optional[Section]]]:
    """The sealed parts of each of ``contents``, laid out one after
    another from the start of file ``name``, and each one's section
    (``None`` for one with nothing in it, which takes no bytes)."""
    parts: List[bytes] = []
    refs: List[Optional[Section]] = []
    offset = 0
    for content in contents:
        content = {key: value for key, value in content.items() if value}
        if not content:
            refs.append(None)
            continue
        header, payload = seal_parts(content, CHUNK_MAGIC)
        size = len(header) + len(payload)
        parts += (header, payload)
        refs.append((name, offset, size))
        offset += size
    return parts, refs


def _trailer(path: Path, handle: Any = None) -> Optional[Tuple[int, int]]:
    """The offset and size of the envelope ``path``'s trailer points
    at, or ``None`` when the file ends in no trailer (read through
    ``handle`` when given)."""
    if handle is None:
        try:
            with open(path, "rb") as handle:
                return _trailer(path, handle)
        except OSError:
            return None
    end = handle.seek(0, os.SEEK_END)
    if end < _TRAILER_SIZE:
        return None
    handle.seek(end - _TRAILER_SIZE)
    tail = handle.read(_TRAILER_SIZE)
    if tail[_OFFSET.size :] != CHECKPOINT_MAGIC:
        return None
    (offset,) = _OFFSET.unpack_from(tail)
    size = end - _TRAILER_SIZE - offset
    return (offset, size) if size >= 0 else None

"""Bounded chunk storage with oldest-first payload eviction.

Implements the storage unit of §3.2: raw chunks are (by the paper's
assumption) always retained, while materialized feature chunks live in a
bounded region. When the bound is exceeded the *payload* of the oldest
feature chunks is evicted, leaving a :class:`~repro.data.chunk.ChunkStub`
that still references the raw chunk so the pipeline can re-materialize
it on demand (dynamic materialization).

The bound can be expressed as a maximum chunk count (``max_materialized``,
the paper's *m*) or a maximum byte budget (``max_bytes``); whichever is
exceeded first triggers eviction.

Re-materializing recomputes from a raw chunk what does not depend on
the pipeline's statistics, every time. :meth:`ChunkStorage.derived`
keeps such a by-product beside the raw chunk it was computed from, for
exactly as long as that chunk is stored and nowhere else: it is not in
the manifest, not spilled, and gone after :meth:`ChunkStorage.restore`.

Eviction is oldest payload first. The timestamps holding a payload are
kept apart from the stubs, in the order their payloads were stored, so
finding the oldest never walks past the stubs in front of it.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import asdict, dataclass
from itertools import compress
from operator import attrgetter
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    TypeVar,
    Union,
)

from repro.data.chunk import ChunkStub, FeatureChunk, RawChunk
from repro.exceptions import StorageError
from repro.obs import names
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.reliability.sites import STORAGE_READ

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.reliability.faults import FaultInjector

_T = TypeVar("_T")


@dataclass
class StorageStats:
    """Counters describing the life of a :class:`ChunkStorage`."""

    raw_inserted: int = 0
    raw_dropped: int = 0
    features_inserted: int = 0
    features_evicted: int = 0
    feature_hits: int = 0
    feature_misses: int = 0
    bytes_materialized: int = 0


class ChunkStorage:
    """In-memory store for raw chunks and (bounded) feature chunks.

    Parameters
    ----------
    max_materialized:
        Maximum number of feature chunks kept materialized (*m* in the
        paper). ``None`` means unbounded.
    max_bytes:
        Optional byte budget for materialized feature payloads.
    raw_capacity:
        Maximum number of raw chunks retained (*N* in the paper).
        ``None`` (default) keeps all raw chunks — the paper's standing
        assumption. When set, the oldest raw chunks are dropped together
        with their feature chunks/stubs, and the sampler simply never
        sees them (§3.2: "the platform ignores these chunks").
    metrics:
        Live metrics registry (the null one by default). Evictions
        bump the ``cache.evictions`` counter and the materialized
        chunk/byte levels are mirrored to ``cache.materialized_chunks``
        / ``cache.materialized_bytes`` gauges — live visibility into
        the numbers :mod:`repro.data.materialization` only derives
        after the fact.
    """

    def __init__(
        self,
        max_materialized: Optional[int] = None,
        max_bytes: Optional[int] = None,
        raw_capacity: Optional[int] = None,
        metrics: MetricsRegistry = NULL_METRICS,
        fault_injector: Optional["FaultInjector"] = None,
    ) -> None:
        if max_materialized is not None and max_materialized < 0:
            raise StorageError(
                f"max_materialized must be >= 0, got {max_materialized}"
            )
        if max_bytes is not None and max_bytes < 0:
            raise StorageError(f"max_bytes must be >= 0, got {max_bytes}")
        if raw_capacity is not None and raw_capacity < 1:
            raise StorageError(
                f"raw_capacity must be >= 1, got {raw_capacity}"
            )
        self.max_materialized = max_materialized
        self.max_bytes = max_bytes
        self.raw_capacity = raw_capacity
        self._raw: "OrderedDict[int, RawChunk]" = OrderedDict()
        self._features: "OrderedDict[int, Union[FeatureChunk, ChunkStub]]" = (
            OrderedDict()
        )
        #: raw timestamp -> what :meth:`derived` keeps beside it.
        self._derived: Dict[int, object] = {}
        #: Timestamps with a payload, oldest payload first (an ordered
        #: set): eviction takes the first without walking the stubs.
        self._materialized: Dict[int, None] = {}
        self._materialized_bytes = 0
        self.stats = StorageStats()
        self._metrics = metrics
        #: Optional deterministic fault injector; when set, every raw
        #: read fires the ``storage.read`` site (simulated disk
        #: failures for the reliability layer).
        self.fault_injector = fault_injector

    # ------------------------------------------------------------------
    # Raw chunks
    # ------------------------------------------------------------------
    def put_raw(self, chunk: RawChunk) -> None:
        """Store a raw chunk; evict the oldest if over ``raw_capacity``.

        A stored table is frozen: history is re-read for the whole
        run, and :meth:`derived` keys on the chunk's identity.
        """
        if chunk.timestamp in self._raw:
            raise StorageError(
                f"raw chunk {chunk.timestamp} already stored"
            )
        chunk.table.freeze()
        self._raw[chunk.timestamp] = chunk
        self.stats.raw_inserted += 1
        while (
            self.raw_capacity is not None
            and len(self._raw) > self.raw_capacity
        ):
            oldest, __ = self._raw.popitem(last=False)
            self._derived.pop(oldest, None)
            self.stats.raw_dropped += 1
            entry = self._features.pop(oldest, None)
            if isinstance(entry, FeatureChunk):
                del self._materialized[oldest]
                self._account_eviction(entry)

    def get_raw(self, timestamp: int) -> RawChunk:
        """Return the raw chunk with ``timestamp``.

        Raises :class:`StorageError` if it has been dropped — dynamic
        materialization relies on raw chunks being available.
        """
        if self.fault_injector is not None:
            self.fault_injector.fire(STORAGE_READ)
        try:
            return self._raw[timestamp]
        except KeyError:
            raise StorageError(
                f"raw chunk {timestamp} is not stored (dropped or never "
                f"inserted); cannot re-materialize"
            ) from None

    def peek_raw(self, timestamp: int) -> RawChunk:
        """Like :meth:`get_raw` but without firing fault injection.

        Used by the checkpoint store when spilling payloads: walking
        in-memory state is not a simulated disk read and must not
        consume ``storage.read`` fault occurrences.
        """
        try:
            return self._raw[timestamp]
        except KeyError:
            raise StorageError(
                f"raw chunk {timestamp} is not stored"
            ) from None

    def has_raw(self, timestamp: int) -> bool:
        return timestamp in self._raw

    def derived(self, chunk: RawChunk, make: Callable[[], _T]) -> _T:
        """What is kept beside the stored raw ``chunk``: ``make()`` the
        first time, that same object on every later request.

        When the first request comes depends on the store. If it
        :attr:`can_evict`, the pipeline manager asks as soon as it has
        ingested the chunk and hands over the stateless prefix its step
        computed (memory traded for a parse: on ``url_remat`` ~22 KB a
        stored chunk, ``peak_rss_mb`` +5 %), because any payload may
        be evicted and its raw chunk re-read. An unbounded store is
        asked only on a re-read, which a run may never make: a chunk
        never re-read keeps nothing.

        Derived data has four lifetime rules. It dies with its raw
        chunk (``raw_capacity`` drops). It is never persisted: not in
        :meth:`manifest`, never spilled, and :meth:`restore` starts
        with none. :meth:`forget_derived` drops all of it (whoever
        computed it may compute differently now). And it is kept only
        for the very object stored, whose table is frozen — identity
        stands for content only while the content cannot change; any
        other chunk gets a fresh ``make()`` that nothing holds on to.
        """
        timestamp = chunk.timestamp
        if self._raw.get(timestamp) is not chunk or not chunk.table.frozen:
            return make()
        kept = self._derived.get(timestamp)
        if kept is None:
            kept = self._derived[timestamp] = make()
        return kept

    def forget_derived(self) -> None:
        """Drop everything :meth:`derived` keeps."""
        self._derived.clear()

    @property
    def raw_timestamps(self) -> List[int]:
        """Timestamps of all stored raw chunks, oldest first."""
        return list(self._raw)

    @property
    def num_raw(self) -> int:
        return len(self._raw)

    # ------------------------------------------------------------------
    # Feature chunks
    # ------------------------------------------------------------------
    def put_features(self, chunk: FeatureChunk) -> None:
        """Store a materialized feature chunk, evicting as needed.

        Replacing a stub with a re-materialized payload is allowed (that
        *is* dynamic materialization); replacing a live payload is not.
        """
        existing = self._features.get(chunk.timestamp)
        if isinstance(existing, FeatureChunk):
            raise StorageError(
                f"feature chunk {chunk.timestamp} is already materialized"
            )
        if existing is not None:
            # Re-materializing over a stub: remove the stub first but
            # keep the chunk's original position out of the eviction
            # order question by re-inserting at the end (it is now the
            # most recently materialized payload).
            del self._features[chunk.timestamp]
        self._features[chunk.timestamp] = chunk
        self._materialized[chunk.timestamp] = None
        self._materialized_bytes += chunk.nbytes()
        self.stats.features_inserted += 1
        self.stats.bytes_materialized = self._materialized_bytes
        self._evict_over_budget()
        self._update_level_gauges()

    def get_features(
        self, timestamp: int
    ) -> Union[FeatureChunk, ChunkStub]:
        """Return the feature chunk or its stub for ``timestamp``.

        Updates hit/miss statistics: a materialized payload is a hit, a
        stub is a miss (the caller must re-materialize).
        """
        try:
            entry = self._features[timestamp]
        except KeyError:
            raise StorageError(
                f"no feature chunk or stub for timestamp {timestamp}"
            ) from None
        if isinstance(entry, FeatureChunk):
            self.stats.feature_hits += 1
        else:
            self.stats.feature_misses += 1
        return entry

    def peek_features(
        self, timestamp: int
    ) -> Union[FeatureChunk, ChunkStub]:
        """Like :meth:`get_features` but without touching hit/miss stats.

        Used for population scans and introspection that must not skew
        the utilization accounting.
        """
        try:
            return self._features[timestamp]
        except KeyError:
            raise StorageError(
                f"no feature chunk or stub for timestamp {timestamp}"
            ) from None

    def is_materialized(self, timestamp: int) -> bool:
        """True when the feature payload for ``timestamp`` is in memory."""
        return isinstance(self._features.get(timestamp), FeatureChunk)

    def has_features_entry(self, timestamp: int) -> bool:
        """True when a feature chunk *or stub* exists for ``timestamp``."""
        return timestamp in self._features

    @property
    def feature_timestamps(self) -> List[int]:
        """Timestamps with a feature entry (payload or stub)."""
        return list(self._features)

    def sampleable_timestamps(self) -> List[int]:
        """Timestamps with a feature entry whose raw chunk is still
        stored — the population a sample draws from (§3.2)."""
        refs = map(attrgetter("raw_reference"), self._features.values())
        stored = map(self._raw.__contains__, refs)
        return list(compress(self._features, stored))

    @property
    def can_evict(self) -> bool:
        """True when a chunk or byte bound is set: a payload stored now
        may be evicted and its raw chunk re-read."""
        return self.max_materialized is not None or self.max_bytes is not None

    @property
    def materialized_timestamps(self) -> List[int]:
        """Timestamps whose feature payload is currently materialized,
        oldest payload first."""
        return list(self._materialized)

    @property
    def num_materialized(self) -> int:
        return len(self._materialized)

    @property
    def materialized_bytes(self) -> int:
        return self._materialized_bytes

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------
    def _evict_over_budget(self) -> None:
        """Evict oldest payloads until both bounds hold.

        Strictly oldest-first, including a just-inserted chunk: with a
        budget of zero every payload is evicted immediately, matching
        the paper's materialization rate 0.0 configuration.
        """
        while self._materialized and self._over_budget():
            self.evict(next(iter(self._materialized)))

    def _over_budget(self) -> bool:
        if (
            self.max_materialized is not None
            and len(self._materialized) > self.max_materialized
        ):
            return True
        if (
            self.max_bytes is not None
            and self._materialized_bytes > self.max_bytes
        ):
            return True
        return False

    def evict(self, timestamp: int) -> ChunkStub:
        """Drop the payload of a materialized chunk, leaving a stub."""
        entry = self._features.get(timestamp)
        if not isinstance(entry, FeatureChunk):
            raise StorageError(
                f"feature chunk {timestamp} is not materialized"
            )
        stub = ChunkStub.of(entry)
        self._features[timestamp] = stub
        del self._materialized[timestamp]
        self._account_eviction(entry)
        return stub

    def _account_eviction(self, chunk: FeatureChunk) -> None:
        self._materialized_bytes -= chunk.nbytes()
        self.stats.features_evicted += 1
        self.stats.bytes_materialized = self._materialized_bytes
        self._metrics.counter(names.CACHE_EVICTIONS).inc()
        self._update_level_gauges()

    def _update_level_gauges(self) -> None:
        self._metrics.gauge(names.CACHE_MATERIALIZED_CHUNKS).set(
            len(self._materialized)
        )
        self._metrics.gauge(names.CACHE_MATERIALIZED_BYTES).set(
            self._materialized_bytes
        )

    def set_byte_budget(self, max_bytes: Optional[int]) -> int:
        """Install a new byte budget and evict down to it immediately.

        The fleet orchestrator re-divides the global materialization
        cap across tenants every scheduling epoch; this is the public
        enforcement point. Returns the number of payloads evicted to
        satisfy the new budget (0 when already under it).
        """
        if max_bytes is not None and max_bytes < 0:
            raise StorageError(f"max_bytes must be >= 0, got {max_bytes}")
        before = self.stats.features_evicted
        self.max_bytes = max_bytes
        self._evict_over_budget()
        self._update_level_gauges()
        return self.stats.features_evicted - before

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def manifest(self) -> Dict[str, object]:
        """Cache manifest: chunk ids + stats, no payload arrays.

        One column a field, not one record a chunk: ``raw`` holds the
        raw timestamps; ``features`` the feature entries' timestamps,
        with ``raw_reference`` and ``materialized`` beside them at the
        same index. Both orders are insertion order (which *is* the
        eviction order), so a restore reproduces future eviction
        decisions exactly. Payloads are persisted separately by the
        checkpoint store; the manifest only records which ids exist
        and which of them are currently materialized.
        """
        entries = self._features
        return {
            "raw": list(self._raw),
            "features": list(entries),
            "raw_reference": list(
                map(attrgetter("raw_reference"), entries.values())
            ),
            "materialized": list(
                map(self._materialized.__contains__, entries)
            ),
            "stats": asdict(self.stats),
        }

    def restore(
        self,
        raw: List[RawChunk],
        features: List[Union[FeatureChunk, ChunkStub]],
        stats: Dict[str, int],
    ) -> None:
        """Rebuild storage contents from checkpointed state.

        ``raw`` and ``features`` must be in the original insertion
        order (the manifest's order); bounds/configuration come from
        the constructor, not the checkpoint. The restored tables are
        frozen as :meth:`put_raw` freezes them (an unpickled array is
        writable), and nothing derived survives: it is recomputed on
        demand.
        """
        for chunk in raw:
            chunk.table.freeze()
        self._raw = OrderedDict(
            (chunk.timestamp, chunk) for chunk in raw
        )
        self.forget_derived()
        self._features = OrderedDict(
            (entry.timestamp, entry) for entry in features
        )
        payloads = [e for e in features if isinstance(e, FeatureChunk)]
        self._materialized = dict.fromkeys(e.timestamp for e in payloads)
        self._materialized_bytes = sum(e.nbytes() for e in payloads)
        self.stats = StorageStats(**stats)
        self._update_level_gauges()

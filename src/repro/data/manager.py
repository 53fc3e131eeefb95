"""The data manager (§4.2 of the paper).

The :class:`DataManager` owns the storage unit and performs the four
tasks the paper assigns to it:

1. discretize incoming training data into timestamped raw chunks,
2. hand chunks to the pipeline manager (the caller) for processing,
3. store transformed feature chunks with a reference to their raw
   chunk, evicting old payloads when storage fills up, and
4. serve samples for proactive training, re-materializing evicted
   chunks through a caller-supplied transform (dynamic materialization).

Re-materialized chunks are *transient*: they are rebuilt for the
requesting training step and do not displace newer materialized
payloads. That keeps the materialized set equal to the most recent *m*
chunks, which is the regime analysed by the paper's closed-form ``μ``
formulas.
"""

from __future__ import annotations

import copy
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from repro.data.chunk import ChunkStub, FeatureChunk, RawChunk
from repro.data.materialization import MaterializationStats
from repro.data.sampling import Sampler, UniformSampler
from repro.data.storage import ChunkStorage
from repro.data.table import Table
from repro.exceptions import SamplingError, StorageError
from repro.obs import names
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.reliability.sites import STORAGE_READ
from repro.utils.rng import SeedLike, ensure_rng

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.reliability.retry import Retrier

#: Callback that re-runs the deployed pipeline's transform path on a raw
#: chunk, producing its feature chunk (dynamic materialization).
Materializer = Callable[[RawChunk], FeatureChunk]


@dataclass(frozen=True)
class SampleRequest:
    """A proactive-training sample request."""

    size: int

    def __post_init__(self) -> None:
        if self.size < 1:
            raise SamplingError(
                f"sample size must be >= 1, got {self.size}"
            )


@dataclass(frozen=True)
class SampledChunk:
    """One chunk returned by :meth:`DataManager.sample`.

    ``was_materialized`` distinguishes cache hits from chunks that had
    to be rebuilt, so callers (and the cost model) can account for the
    re-materialization work.
    """

    chunk: FeatureChunk
    was_materialized: bool

    @property
    def timestamp(self) -> int:
        return self.chunk.timestamp


class DataManager:
    """Storage, discretization, and sampling front-end.

    Parameters
    ----------
    storage:
        The bounded chunk store; a fresh unbounded one by default.
    sampler:
        Sampling strategy for proactive training (uniform by default).
    seed:
        Seed or generator for the sampling randomness.
    telemetry:
        Optional observability bundle. When enabled, every sampling
        operation updates live ``cache.hits`` / ``cache.misses`` /
        ``cache.rematerializations`` counters, feeds the
        ``sampler.chunk_age`` coverage histogram (age in chunks of
        each selected timestamp), and emits a ``cache.sample`` point
        event.
    """

    def __init__(
        self,
        storage: Optional[ChunkStorage] = None,
        sampler: Optional[Sampler] = None,
        seed: SeedLike = None,
        telemetry: Optional[Telemetry] = None,
        retrier: Optional["Retrier"] = None,
    ) -> None:
        self.storage = storage if storage is not None else ChunkStorage()
        self.sampler = sampler if sampler is not None else UniformSampler()
        self.stats = MaterializationStats()
        self.telemetry = (
            telemetry if telemetry is not None else NULL_TELEMETRY
        )
        #: Optional retry wrapper for transient storage faults on every
        #: read of history (see :meth:`read_raw`).
        self.retrier = retrier
        self._rng = ensure_rng(seed)
        self._next_timestamp = 0

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def ingest(self, table: Table) -> RawChunk:
        """Discretize one batch of raw rows into a timestamped chunk.

        Timestamps are assigned monotonically; the chunk is stored and
        returned so the caller can forward it through the pipeline.
        Storing freezes the table's columns (:meth:`ChunkStorage.put_raw`).
        """
        chunk = RawChunk(timestamp=self._next_timestamp, table=table)
        self._next_timestamp += 1
        self.storage.put_raw(chunk)
        return chunk

    def store_features(self, chunk: FeatureChunk) -> None:
        """Store the pipeline's output for a previously ingested chunk."""
        if not self.storage.has_raw(chunk.raw_reference):
            raise StorageError(
                f"feature chunk {chunk.timestamp} references raw chunk "
                f"{chunk.raw_reference}, which is not stored"
            )
        self.storage.put_features(chunk)

    @property
    def num_chunks(self) -> int:
        """Number of chunks available for sampling (*n* in the paper)."""
        return len(self.storage.sampleable_timestamps())

    @property
    def next_timestamp(self) -> int:
        """The timestamp the next :meth:`ingest` call will assign.

        Timestamps are assigned sequentially from this value — the
        contract the provenance ledger relies on when pre-registering
        the chunks of a multi-table initial fit.
        """
        return self._next_timestamp

    # ------------------------------------------------------------------
    # Sampling with dynamic materialization
    # ------------------------------------------------------------------
    def sample(
        self,
        request: SampleRequest,
        materializer: Materializer,
    ) -> List[SampledChunk]:
        """Draw a training sample, re-materializing evicted chunks.

        Only chunks whose raw data is still stored participate (§3.2:
        unavailable chunks are ignored during sampling). For every
        selected timestamp the materialized payload is returned when
        present; otherwise ``materializer`` rebuilds it from the raw
        chunk. Utilization statistics are recorded either way.
        """
        population = self.storage.sampleable_timestamps()
        if not population:
            raise SamplingError("no chunks available for sampling")
        chosen = self.sampler.sample(population, request.size, self._rng)
        results: List[SampledChunk] = []
        hits = 0
        for timestamp in chosen:
            entry = self.storage.get_features(timestamp)
            if isinstance(entry, FeatureChunk):
                hits += 1
                results.append(
                    SampledChunk(chunk=entry, was_materialized=True)
                )
                continue
            rebuilt = self._rematerialize(entry, materializer)
            results.append(
                SampledChunk(chunk=rebuilt, was_materialized=False)
            )
        self.stats.record(sampled=len(chosen), materialized=hits)
        self._record_sample_telemetry(population, chosen, hits)
        return results

    def _record_sample_telemetry(
        self, population: List[int], chosen: List[int], hits: int
    ) -> None:
        metrics = self.telemetry.metrics
        misses = len(chosen) - hits
        metrics.counter(names.CACHE_HITS).inc(hits)
        metrics.counter(names.CACHE_MISSES).inc(misses)
        metrics.counter(names.CACHE_REMATERIALIZATIONS).inc(misses)
        newest = max(population)
        age_histogram = metrics.histogram(names.SAMPLER_CHUNK_AGE)
        for timestamp in chosen:
            age_histogram.add(newest - timestamp)
        self.telemetry.tracer.point(
            names.CACHE_SAMPLE,
            sampled=len(chosen),
            hits=hits,
            misses=misses,
            population=len(population),
        )

    def read_raw(self, timestamp: int) -> RawChunk:
        """Read one stored raw chunk back — the one read of history,
        for re-materialization and retraining alike: a transient
        ``storage.read`` fault is retried when a retrier is attached."""
        if self.retrier is None:
            return self.storage.get_raw(timestamp)
        return self.retrier.call(
            lambda: self.storage.get_raw(timestamp), site=STORAGE_READ
        )

    def _rematerialize(
        self, stub: ChunkStub, materializer: Materializer
    ) -> FeatureChunk:
        rebuilt = materializer(self.read_raw(stub.raw_reference))
        if rebuilt.timestamp != stub.timestamp:
            raise StorageError(
                f"materializer produced timestamp {rebuilt.timestamp} "
                f"for stub {stub.timestamp}"
            )
        return rebuilt

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Sampler RNG position, timestamp cursor, and μ accounting.

        Storage contents are checkpointed separately (the manifest +
        spilled payloads); this covers everything else the manager
        mutates, most importantly the NumPy bit-generator state so the
        post-recovery sampling sequence continues bit-identically.
        """
        return {
            "next_timestamp": self._next_timestamp,
            "rng_state": copy.deepcopy(self._rng.bit_generator.state),
            "stats": asdict(self.stats),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore state captured by :meth:`state_dict`."""
        self._next_timestamp = int(state["next_timestamp"])
        self._rng.bit_generator.state = copy.deepcopy(state["rng_state"])
        self.stats = MaterializationStats(**state["stats"])

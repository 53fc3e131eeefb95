"""Per-run reliability services for the deployment loop.

A :class:`ReliabilityRuntime` bundles the three reliability concerns a
prequential run threads through its hot loop:

* **guarded stream iteration** — every ``next()`` on the deployment
  stream fires the ``stream.read`` fault site and, when a retry policy
  is configured, transient faults are retried (the *next* occurrence of
  the site is a fresh draw, so a retry re-reads the same chunk);
* **checkpoint writing** — :meth:`ReliabilityRuntime.write` is the
  one place a :class:`~repro.reliability.checkpoint.PlatformCheckpoint`
  is assembled. The owner (deployment loop, platform, or fleet)
  supplies its cursor, artifact bundle, own state and own *live*
  append-only logs (error and cost histories, proactive outcomes);
  the runtime adds the telemetry state and hands the envelope to the
  store, together with those logs and the telemetry's (ledger
  entries, monitor snapshots and resolved incidents) — the store
  writes only what each gained since the last checkpoint, so a write
  costs what changed, not the run's history;
* **recovery** — :meth:`ReliabilityRuntime.load` finds the latest
  valid checkpoint and checks who wrote it;
  :meth:`ReliabilityRuntime.read_logs` reassembles the logs from their
  segments (an owner that keeps logs reads them first);
  :meth:`ReliabilityRuntime.restore` puts back telemetry and storage
  and records a
  :class:`RecoveryInfo` that ends up on the
  :class:`~repro.core.deployment.base.DeploymentResult`.

Telemetry invariant: counters incremented *by* the reliability layer
for a checkpoint write happen **before** the metrics state is captured
into that checkpoint, so a recovered run's counters continue exactly
where the uninterrupted run's would be. Recovery itself is reported
through trace points and :class:`RecoveryInfo`, never counters — a
recovered run must finish with byte-identical counters to an
uninterrupted one.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Union

from repro.exceptions import ReliabilityError
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.obs import names
from repro.persistence import DeploymentBundle
from repro.reliability.checkpoint import (
    CheckpointConfig,
    CheckpointStore,
    PlatformCheckpoint,
    as_store,
)
from repro.reliability.faults import FaultInjector, FaultPlan
from repro.reliability.retry import Retrier, RetryPolicy
from repro.reliability.sites import STREAM_READ
from repro.utils.validation import check_positive_int

if TYPE_CHECKING:  # import cycle: data.storage fires sites from here
    from repro.data.storage import ChunkStorage


@dataclass(frozen=True)
class RecoveryInfo:
    """How a run was resumed (attached to the deployment result)."""

    cursor: int
    approach: str
    redo_chunks: Optional[int] = None


class ReliabilityRuntime:
    """Fault injection, retries, and the checkpoint writer/restorer for
    one run."""

    def __init__(
        self,
        checkpoint: Union[
            CheckpointStore, CheckpointConfig, str, None
        ] = None,
        fault_plan: Union[FaultPlan, FaultInjector, None] = None,
        retry: Union[RetryPolicy, Retrier, None] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.telemetry = (
            telemetry if telemetry is not None else NULL_TELEMETRY
        )
        if isinstance(fault_plan, FaultInjector):
            self.injector = fault_plan
        else:
            self.injector = FaultInjector(fault_plan, self.telemetry)
        if isinstance(retry, Retrier):
            self.retrier: Optional[Retrier] = retry
        elif retry is not None:
            self.retrier = Retrier(retry, self.telemetry)
        else:
            self.retrier = None
        self.store = as_store(
            checkpoint,
            telemetry=self.telemetry,
            fault_injector=(
                self.injector if len(self.injector.plan) else None
            ),
            retrier=self.retrier,
        )
        #: Cursor of the last checkpoint written this run (or ``None``).
        self.last_checkpoint_cursor: Optional[int] = None
        #: Set when the run was resumed from a checkpoint.
        self.recovery: Optional[RecoveryInfo] = None
        # The sections :meth:`read_logs` opened, for :meth:`restore`.
        self._sections: Dict[Any, Dict[str, Any]] = {}

    # ------------------------------------------------------------------
    # Stream guarding
    # ------------------------------------------------------------------
    def read_chunk(self, iterator: Iterator[Any]) -> Any:
        """``next(iterator)`` through the fault/retry machinery.

        The ``stream.read`` site fires *before* the underlying read, so
        a retried transient fault pulls the same chunk on its second
        attempt rather than skipping one. ``StopIteration`` passes
        through untouched (end of stream is not a fault).
        """
        if not len(self.injector.plan) and self.retrier is None:
            return next(iterator)

        def attempt() -> Any:
            self.injector.fire(STREAM_READ)
            return next(iterator)

        if self.retrier is None:
            return attempt()
        return self.retrier.call(
            attempt, site=STREAM_READ, retryable=self._retryable()
        )

    @staticmethod
    def _retryable():
        # StopIteration must never be swallowed by the retry loop; the
        # default retryable set (TransientFault/OSError) excludes it
        # already, so reuse it explicitly for clarity.
        from repro.reliability.retry import DEFAULT_RETRYABLE

        return DEFAULT_RETRYABLE

    @staticmethod
    def skip_chunks(iterator: Iterator[Any], count: int) -> None:
        """Consume ``count`` already-processed chunks after recovery.

        Deployment streams are deterministic seeded generators, so a
        recovered run rebuilds the pre-crash prefix by regenerating and
        discarding it — no fault sites fire (those chunks were already
        read successfully before the crash).
        """
        if count < 0:
            check_positive_int(count, "count")
        for _ in range(count):
            next(iterator)

    def guard_reads(self, data_manager) -> None:
        """Attach fault injection / retries to a data manager.

        Owners call this after building their
        :class:`~repro.data.manager.DataManager` so ``storage.read``
        faults fire on raw-chunk reads and transient ones are retried.
        """
        if len(self.injector.plan):
            data_manager.storage.fault_injector = self.injector
        data_manager.retrier = self.retrier

    # ------------------------------------------------------------------
    # Checkpoint writing
    # ------------------------------------------------------------------
    def due(self, cursor: int) -> bool:
        """True when a checkpoint should be written at ``cursor``."""
        return (
            self.store is not None
            and cursor > 0
            and cursor % self.store.cadence == 0
        )

    def _require_store(self) -> CheckpointStore:
        if self.store is None:
            raise ReliabilityError(
                "this run was constructed without a checkpoint= option"
            )
        return self.store

    def write(
        self,
        cursor: int,
        approach: str,
        bundle: Optional[DeploymentBundle],
        state: Dict[str, Any],
        storage: Optional["ChunkStorage"] = None,
        logs: Optional[Dict[str, List[Any]]] = None,
    ) -> Path:
        """Assemble and persist one checkpoint; returns its path.

        ``state`` is the owner's own state and ``logs`` its live
        append-only lists (kept out of ``state``: the store writes
        what each gained since the last checkpoint); the telemetry
        state (``metrics``, plus ``monitor`` and ``lineage`` when
        attached) is added beside them, its logs passed on as they
        are. The written counter increments *before* that capture so
        the checkpoint's own write is part of the metrics it saves
        (keeping recovered-run counters byte-identical to the
        uninterrupted timeline).
        """
        store = self._require_store()
        self.telemetry.metrics.counter(
            names.RELIABILITY_CHECKPOINTS_WRITTEN
        ).inc()
        checkpoint = PlatformCheckpoint(
            cursor=cursor,
            approach=approach,
            bundle=bundle,
            state={**state, **self.telemetry.state_dict()},
        )
        path = store.write(
            checkpoint,
            storage=storage,
            logs={**(logs or {}), **self.telemetry.logs()},
        )
        self.last_checkpoint_cursor = cursor
        return path

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def load(self, approach: str) -> PlatformCheckpoint:
        """The latest valid checkpoint, which ``approach`` must have
        written (older ones are tried when the newest is corrupt)."""
        checkpoint = self._require_store().load_latest()
        if checkpoint.approach != approach:
            raise ReliabilityError(
                f"checkpoint was written by a "
                f"{checkpoint.approach!r} run; this one is "
                f"{approach!r}"
            )
        return checkpoint

    def read_logs(self, checkpoint: PlatformCheckpoint) -> Dict[str, List[Any]]:
        """Every log of ``checkpoint``, reassembled: the owner's own
        ones to put back before :meth:`restore`, which takes the
        result (and reads no section twice)."""
        self._sections = {}
        return self._require_store().restore_logs(
            checkpoint.logs or {}, self._sections
        )

    def restore(
        self,
        checkpoint: PlatformCheckpoint,
        storage: Optional["ChunkStorage"] = None,
        logs: Optional[Dict[str, List[Any]]] = None,
    ) -> None:
        """Put back telemetry and storage; mark this run as recovered.

        Call *after* the owner has installed the bundle and loaded its
        own state: the ``reliability.recovered`` point is stamped with
        the restored virtual clock, and reaches an attached monitor
        after that monitor's own state is back. ``logs`` is what
        :meth:`read_logs` returned, when the owner read them first.
        """
        store = self._require_store()
        if logs is None:
            logs = self.read_logs(checkpoint)
        self.telemetry.load_state_dict(checkpoint.state, logs)
        if storage is not None and checkpoint.manifest is not None:
            store.restore_storage(
                storage, checkpoint.manifest, self._sections
            )
        self._sections = {}
        self.recovery = RecoveryInfo(
            cursor=checkpoint.cursor, approach=checkpoint.approach
        )
        self.telemetry.tracer.point(
            names.RELIABILITY_RECOVERED,
            cursor=checkpoint.cursor,
            approach=checkpoint.approach,
        )

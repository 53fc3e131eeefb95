"""The fleet orchestrator: many pipelines, one clock, shared budgets.

:class:`FleetOrchestrator` steps dozens of tenant deployments
cooperatively on one shared :class:`~repro.fleet.clock.VirtualClock`
(advanced to the *sum* of the tenants' engine costs, so fleet
telemetry timestamps reflect total work done). Every scheduling epoch
it:

1. snapshots each tenant's data signals (new rows, drift, staleness),
2. asks the :class:`~repro.fleet.scheduler.FleetScheduler` to divide
   the epoch's training slots and materialization bytes,
3. enforces the per-tenant byte quotas (evicting overdrafts),
4. lets every active tenant ingest its stream chunks (prequential
   test-then-train); a tenant's granted slots fire inside its last
   chunk's ``observe``, through its platform's one training rule,
5. emits ``fleet.*`` telemetry and appends the allocation to the
   schedule log.

A fleet checkpoint (approach ``"fleet"``) nests every tenant's full
state plus the scheduler, schedule log, clock, and spec, so
:meth:`recover` resumes the whole fleet byte-identically — the spec
rides inside the checkpoint, no side files needed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.fleet.clock import VirtualClock
from repro.fleet.scheduler import FleetScheduler
from repro.fleet.spec import FleetSpec
from repro.fleet.tenant import TenantRuntime
from repro.fleet.triggers import TriggerPolicy
from repro.obs import names
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.reliability.checkpoint import CheckpointConfig, CheckpointStore
from repro.reliability.runtime import ReliabilityRuntime


def _canonical_digest(payload: Any) -> str:
    """SHA-256 over a canonical JSON rendering of ``payload``."""
    text = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class FleetResult:
    """What a fleet run produced (everything deterministic)."""

    policy: str
    epochs: int
    tenants: List[str]
    weights: List[float]
    #: Final cumulative prequential error per tenant (0.0 when a
    #: tenant never saw a chunk).
    per_tenant_error: List[float]
    #: Weighted mean of the per-tenant errors — the headline exp8
    #: comparison number.
    aggregate_error: float
    trainings: List[int]
    rescues: int
    overdrafts: int
    total_cost: float
    schedule_log: List[Dict[str, Any]] = field(default_factory=list)
    digest: str = ""
    telemetry_digest: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "policy": self.policy,
            "epochs": self.epochs,
            "tenants": self.tenants,
            "weights": self.weights,
            "per_tenant_error": self.per_tenant_error,
            "aggregate_error": self.aggregate_error,
            "trainings": self.trainings,
            "rescues": self.rescues,
            "overdrafts": self.overdrafts,
            "total_cost": self.total_cost,
            "digest": self.digest,
            "telemetry_digest": self.telemetry_digest,
        }


class FleetOrchestrator:
    """Runs one :class:`~repro.fleet.spec.FleetSpec` to completion."""

    def __init__(
        self,
        spec: FleetSpec,
        telemetry: Optional[Telemetry] = None,
        checkpoint: Union[
            CheckpointStore, CheckpointConfig, str, None
        ] = None,
        registry_root: Optional[str] = None,
        triggers: Optional[TriggerPolicy] = None,
    ) -> None:
        self.spec = spec
        self.telemetry = (
            telemetry if telemetry is not None else NULL_TELEMETRY
        )
        self.clock = VirtualClock()
        self.scheduler = FleetScheduler(spec, triggers)
        self.reliability = ReliabilityRuntime(
            checkpoint, telemetry=self.telemetry
        )
        self.registry_root = registry_root
        self.tenants: List[TenantRuntime] = []
        self.schedule_log: List[Dict[str, Any]] = []
        self.epoch = 0
        self.overdrafts = 0

    # ------------------------------------------------------------------
    def setup(self, fit: bool = True) -> None:
        """Build (and optionally initial-fit) every tenant runtime.

        Rebinds the shared virtual clock to the telemetry tracer
        *after* tenant construction: each tenant engine binds its own
        clock when built, and the fleet clock must win.
        """
        if self.tenants:
            return
        for index, tenant_spec in enumerate(self.spec.tenants):
            self.tenants.append(
                TenantRuntime(
                    index,
                    tenant_spec,
                    telemetry=self.telemetry,
                    registry_root=self.registry_root,
                    fit=fit,
                )
            )
        self.telemetry.bind_clock(self.clock)
        self._sync_clock()

    def _sync_clock(self) -> None:
        self.clock.advance(
            sum(t.total_cost() for t in self.tenants)
        )

    def has_work(self) -> bool:
        """True while any stream has chunks and the epoch cap allows."""
        if not self.tenants:
            return True
        if self.spec.max_epochs and self.epoch >= self.spec.max_epochs:
            return False
        return any(t.active for t in self.tenants)

    # ------------------------------------------------------------------
    def run_epoch(self) -> Dict[str, Any]:
        """One scheduling epoch; returns the schedule-log entry."""
        self.setup()
        tracer = self.telemetry.tracer
        metrics = self.telemetry.metrics
        signals = [t.signals(self.epoch) for t in self.tenants]
        allocation = self.scheduler.allocate(signals)
        # Quota enforcement precedes ingest so this epoch's writes are
        # bounded by this epoch's quotas.
        for tenant, quota in zip(
            self.tenants, allocation.materialize_bytes
        ):
            report = tenant.apply_quota(quota)
            if report["overdraft"]:
                self.overdrafts += 1
                tracer.point(
                    names.FLEET_OVERDRAFT,
                    tenant=tenant.name,
                    epoch=self.epoch,
                    bytes=report["overdraft"],
                    quota=quota,
                )
                metrics.counter(names.FLEET_OVERDRAFTS).inc()
            if report["evicted"]:
                metrics.counter(names.FLEET_EVICTIONS).inc(
                    report["evicted"]
                )
        trainings_run = 0
        for tenant, slots in zip(self.tenants, allocation.train_slots):
            left = tenant.spec.chunks - tenant.cursor
            chunks = min(self.spec.chunks_per_epoch, left)
            for step in range(chunks):
                tenant.ingest_chunk(
                    self.epoch, slots if step == chunks - 1 else 0
                )
            self._sync_clock()
            if not chunks:
                continue
            # The latest *measured* chunk: one served empty (every row
            # filtered) leaves the drift window as it was.
            window = tenant.grant.window
            tracer.point(
                names.FLEET_TENANT_CHUNK,
                tenant=tenant.name,
                cursor=tenant.cursor,
                error=window[-1] if window else None,
            )
            if slots:
                trainings_run += slots
                tracer.point(
                    names.FLEET_TRAINING,
                    tenant=tenant.name,
                    epoch=self.epoch,
                    slots=slots,
                )
                metrics.counter(names.FLEET_TRAININGS).inc(slots)
        aggregate = self.aggregate_error()
        active = sum(1 for t in self.tenants if t.active)
        metrics.gauge(names.FLEET_BALANCE).set(allocation.balance)
        metrics.gauge(names.FLEET_ACTIVE_TENANTS).set(active)
        metrics.gauge(names.FLEET_AGGREGATE_ERROR).set(aggregate)
        if allocation.rescued:
            metrics.counter(names.FLEET_RESCUES).inc(
                len(allocation.rescued)
            )
        tracer.point(
            names.FLEET_EPOCH,
            epoch=self.epoch,
            balance=allocation.balance,
            aggregate_error=aggregate,
            trainings=trainings_run,
            active=active,
        )
        entry = allocation.to_dict()
        entry["aggregate_error"] = aggregate
        entry["cost"] = self.clock.now
        entry["active"] = active
        self.schedule_log.append(entry)
        self.epoch += 1
        if self.reliability.due(self.epoch):
            self.checkpoint()
        return entry

    def run(self) -> FleetResult:
        """Run every remaining epoch and summarize."""
        self.setup()
        while self.has_work():
            self.run_epoch()
        return self.result()

    # ------------------------------------------------------------------
    def aggregate_error(self) -> float:
        """Weighted mean of the tenants' cumulative prequential errors.

        Tenants that have not predicted yet contribute nothing (their
        weight is excluded), so the aggregate is always an average of
        real error values.
        """
        num = 0.0
        den = 0.0
        for tenant in self.tenants:
            if tenant.prequential.total_count:
                value = tenant.prequential.history[-1]
                num += tenant.spec.weight * value
                den += tenant.spec.weight
        return num / den if den else 0.0

    def digest(self) -> str:
        """SHA-256 over the run's deterministic trajectory.

        Covers the schedule log, every tenant's full prequential
        history and training count, and the final clock — the
        byte-identity contract exp8 and the CI smoke verify.
        """
        return _canonical_digest(
            {
                "schedule": self.schedule_log,
                "errors": [
                    t.prequential.history for t in self.tenants
                ],
                "trainings": [t.trainings for t in self.tenants],
                "cost": self.clock.now,
            }
        )

    def telemetry_digest(self) -> Optional[str]:
        """SHA-256 over the event stream (wall-clock fields dropped).

        ``None`` without live telemetry. Spans carry virtual-cost
        timestamps/durations and deterministic attrs; only ``wall_s``
        varies run to run, so it is excluded.
        """
        if not self.telemetry.enabled:
            return None
        events = [
            {k: v for k, v in event.items() if k != "wall_s"}
            for event in self.telemetry.events
        ]
        return _canonical_digest(
            {
                "events": events,
                "metrics": self.telemetry.metrics.snapshot(),
            }
        )

    def result(self) -> FleetResult:
        per_tenant = [
            t.prequential.history[-1] if t.prequential.total_count else 0.0
            for t in self.tenants
        ]
        return FleetResult(
            policy=self.spec.policy,
            epochs=self.epoch,
            tenants=[t.name for t in self.tenants],
            weights=[t.spec.weight for t in self.tenants],
            per_tenant_error=per_tenant,
            aggregate_error=self.aggregate_error(),
            trainings=[t.trainings for t in self.tenants],
            rescues=self.scheduler.rescues,
            overdrafts=self.overdrafts,
            total_cost=self.clock.now,
            schedule_log=list(self.schedule_log),
            digest=self.digest(),
            telemetry_digest=self.telemetry_digest(),
        )

    # ------------------------------------------------------------------
    # Checkpointing and recovery
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Every tenant's full state plus the fleet's own scheduler,
        schedule log, clock and counters."""
        return {
            "scheduler": self.scheduler.state_dict(),
            "schedule_log": list(self.schedule_log),
            "clock": self.clock.now,
            "epoch": self.epoch,
            "overdrafts": self.overdrafts,
            "tenants": [t.state_dict() for t in self.tenants],
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore state captured by :meth:`state_dict`; tenants must
        already be set up (without initial training)."""
        for tenant, tenant_state in zip(self.tenants, state["tenants"]):
            tenant.load_state_dict(tenant_state)
        self.scheduler.load_state_dict(state["scheduler"])
        self.schedule_log = list(state["schedule_log"])
        self.epoch = int(state["epoch"])
        self.overdrafts = int(state["overdrafts"])
        self.clock.advance(float(state["clock"]))

    def checkpoint(self) -> Path:
        """Write a fleet checkpoint (cursor = epochs completed).

        The fleet has no single artifact bundle; every tenant's bundle
        is nested in its entry under ``"tenants"``. The spec is
        configuration, not state: it rides along so that
        :meth:`recover` needs nothing but the directory.
        """
        return self.reliability.write(
            self.epoch,
            "fleet",
            None,
            {"spec": self.spec.to_dict(), **self.state_dict()},
        )

    @classmethod
    def recover(
        cls,
        checkpoint: Union[CheckpointStore, CheckpointConfig, str],
        telemetry: Optional[Telemetry] = None,
        registry_root: Optional[str] = None,
        triggers: Optional[TriggerPolicy] = None,
    ) -> "FleetOrchestrator":
        """Resume a whole fleet from its latest valid checkpoint.

        The spec rides inside the checkpoint, so a directory is all a
        recovery needs. Continuation is byte-identical to the
        uninterrupted run: tenants are rebuilt without initial
        training, their artifacts/storage/state restored, streams
        fast-forwarded, and the scheduler + schedule log + clock
        reinstated.
        """
        loader = ReliabilityRuntime(checkpoint, telemetry=telemetry)
        saved = loader.load("fleet")
        orchestrator = cls(
            FleetSpec.from_dict(saved.state["spec"]),
            telemetry=telemetry,
            checkpoint=loader.store,
            registry_root=registry_root,
            triggers=triggers,
        )
        orchestrator.setup(fit=False)
        orchestrator.load_state_dict(saved.state)
        orchestrator.reliability.restore(saved)
        return orchestrator

    def __repr__(self) -> str:
        return (
            f"FleetOrchestrator(tenants={len(self.spec.tenants)}, "
            f"policy={self.spec.policy!r}, epoch={self.epoch})"
        )

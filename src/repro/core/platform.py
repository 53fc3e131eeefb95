"""The assembled continuous-deployment platform (Figure 3).

:class:`ContinuousDeploymentPlatform` wires the five architecture
components — pipeline manager, data manager, scheduler, proactive
trainer, execution engine — from a
:class:`~repro.core.config.ContinuousConfig`. It exposes the two
operations a deployment environment needs:

* :meth:`predict` — answer a batch of prediction queries;
* :meth:`observe` — ingest a batch of training data, run the online
  update, and fire proactive training when a training rule says so.

*When* it fires is a list of :class:`TrainingRule`: the configured
schedule (§4.1), if any, then any the caller appends (e.g. a drift
response). Every trigger hears every prediction batch, every chunk's
errors and every training, whichever rule fired it — formula (6)'s
``T`` is the last training's duration, not the last scheduled one's.
"""

from __future__ import annotations

from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.config import ContinuousConfig, ScheduleConfig
from repro.core.pipeline_manager import PipelineManager
from repro.core.proactive import ProactiveOutcome, ProactiveTrainer
from repro.core.scheduler import (
    DynamicScheduler,
    Scheduler,
    StaticScheduler,
)
from repro.data.manager import DataManager
from repro.data.sampling import Sampler, make_sampler
from repro.data.storage import ChunkStorage
from repro.data.table import Table
from repro.exceptions import ValidationError
from repro.execution.cost import CostModel
from repro.obs import names
from repro.execution.engine import LocalExecutionEngine
from repro.ml.models.base import LinearSGDModel
from repro.ml.optim.base import Optimizer
from repro.ml.sgd import TrainingResult
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.persistence import DeploymentBundle
from repro.pipeline.fingerprint import pipeline_fingerprint
from repro.pipeline.pipeline import Pipeline
from repro.reliability.checkpoint import CheckpointConfig, CheckpointStore
from repro.reliability.faults import FaultInjector, FaultPlan
from repro.reliability.retry import Retrier, RetryPolicy
from repro.reliability.runtime import ReliabilityRuntime
from repro.utils.rng import SeedLike
from repro.utils.validation import check_positive_int

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serving.registry import ModelRegistry, VersionInfo


def build_scheduler(config: ScheduleConfig) -> Optional[Scheduler]:
    """Construct the scheduler described by ``config``, if any."""
    if config.kind == "static":
        return StaticScheduler(config.interval_chunks)
    if config.kind == "none":
        return None
    return DynamicScheduler(
        slack=config.slack, initial_interval=config.initial_interval
    )


class TrainingRule(NamedTuple):
    """When proactive training fires, how often per firing, and under
    which sampler (``None``: the data manager's own)."""

    trigger: Scheduler
    sampler: Optional[Sampler] = None
    repeats: int = 1


class ContinuousDeploymentPlatform:
    """Continuous deployment of one pipeline + model.

    Parameters
    ----------
    pipeline, model, optimizer:
        The deployed artifacts (shared mutable state — the platform
        updates them in place).
    config:
        Deployment hyperparameters (§2.2's first group).
    cost_model:
        Optional cost-model prices for the execution engine.
    seed:
        Controls the sampling randomness.
    rules:
        Training rules asked, in order, after the configured schedule
        (the first rule, unless its kind is ``"none"``).
    telemetry:
        Optional observability bundle, threaded through the engine
        (operation spans), storage (eviction counters), data manager
        (cache/sampler telemetry), and this platform (observe and
        proactive-training spans, scheduler decision events).
    registry:
        Optional :class:`~repro.serving.registry.ModelRegistry`.
        When attached, every proactive-training outcome is snapshotted
        into the registry as a *candidate* version with full lineage
        (parent = current live version, chunks observed, virtual-clock
        training cost, final objective) — the feed a staged rollout
        promotes from.
    checkpoint:
        Optional checkpointing (a directory, a
        :class:`~repro.reliability.checkpoint.CheckpointConfig`, or a
        prebuilt store). When set, :meth:`observe` writes a full
        platform checkpoint every ``cadence_chunks`` chunks and
        :meth:`recover` can rebuild the platform after a crash.
    fault_plan:
        Optional deterministic fault injection (a
        :class:`~repro.reliability.faults.FaultPlan`, or a shared
        :class:`~repro.reliability.faults.FaultInjector` when the
        caller owns the occurrence counting); raw-chunk reads fire the
        ``storage.read`` site, checkpoint writes ``checkpoint.write``.
    retry:
        Optional :class:`~repro.reliability.retry.RetryPolicy` (or
        prebuilt :class:`~repro.reliability.retry.Retrier`) masking
        transient storage/checkpoint faults.
    """

    def __init__(
        self,
        pipeline: Pipeline,
        model: LinearSGDModel,
        optimizer: Optimizer,
        config: Optional[ContinuousConfig] = None,
        cost_model: Optional[CostModel] = None,
        seed: SeedLike = None,
        telemetry: Optional[Telemetry] = None,
        registry: Optional["ModelRegistry"] = None,
        checkpoint: Union[
            CheckpointStore, CheckpointConfig, str, None
        ] = None,
        fault_plan: Union[FaultPlan, FaultInjector, None] = None,
        retry: Union[RetryPolicy, Retrier, None] = None,
        lineage_scope: Optional[str] = None,
        rules: Sequence[TrainingRule] = (),
    ) -> None:
        self.config = config if config is not None else ContinuousConfig()
        self.telemetry = (
            telemetry if telemetry is not None else NULL_TELEMETRY
        )
        self.reliability = ReliabilityRuntime(
            checkpoint=checkpoint,
            fault_plan=fault_plan,
            retry=retry,
            telemetry=self.telemetry,
        )
        sampler = make_sampler(
            self.config.sampler,
            window_size=self.config.window_size,
            half_life=self.config.half_life,
        )
        storage = ChunkStorage(
            max_materialized=self.config.max_materialized_chunks,
            metrics=self.telemetry.metrics,
        )
        self.engine = LocalExecutionEngine(
            cost_model, telemetry=self.telemetry
        )
        self.data_manager = DataManager(
            storage=storage,
            sampler=sampler,
            seed=seed,
            telemetry=self.telemetry,
        )
        self.reliability.guard_reads(self.data_manager)
        self.manager = PipelineManager(
            pipeline=pipeline,
            model=model,
            optimizer=optimizer,
            data_manager=self.data_manager,
            engine=self.engine,
        )
        schedule = build_scheduler(self.config.schedule)
        self.rules = [TrainingRule(schedule)] if schedule is not None else []
        self.rules.extend(rules)
        for rule in rules:
            check_positive_int(rule.repeats, "repeats")
        self.proactive = ProactiveTrainer(self.manager.trainer, self.engine)
        self.proactive_outcomes: List[ProactiveOutcome] = []
        self.registry = registry
        self.registered_versions: List["VersionInfo"] = []
        self._chunk_index = -1
        #: Namespace for this platform's lineage nodes (a fleet sets
        #: the tenant name so chunk timestamps cannot collide).
        self.lineage_scope = lineage_scope
        #: Node id of the most recent training event the attached
        #: ledger recorded (``None`` without a ledger).
        self.last_training_event: Optional[str] = None

    # ------------------------------------------------------------------
    @property
    def pipeline(self) -> Pipeline:
        return self.manager.pipeline

    @property
    def model(self) -> LinearSGDModel:
        return self.manager.model

    @property
    def chunks_observed(self) -> int:
        return self._chunk_index + 1

    # ------------------------------------------------------------------
    def initial_fit(
        self,
        tables: List[Table],
        batch_size: Optional[int] = None,
        max_iterations: int = 200,
        tolerance: float = 1e-4,
        seed: SeedLike = None,
        store: bool = False,
    ) -> TrainingResult:
        """Pre-deployment training (delegates to the pipeline manager)."""
        ledger = self.telemetry.ledger
        if ledger is not None and store:
            # Stored initial chunks participate in sampling later, so
            # they need lineage nodes; ingest assigns timestamps
            # sequentially from next_timestamp.
            base = self.data_manager.next_timestamp
            for offset, table in enumerate(tables):
                ledger.record_chunk(
                    base + offset,
                    table.digest(),
                    table.num_rows,
                    scope=self.lineage_scope,
                )
        return self.manager.initial_fit(
            tables,
            batch_size=batch_size,
            max_iterations=max_iterations,
            tolerance=tolerance,
            seed=seed,
            store=store,
        )

    def predict(self, table: Table) -> Tuple[np.ndarray, np.ndarray]:
        """Answer prediction queries; informs every trigger."""
        before = self.engine.total_cost()
        predictions, labels = self.manager.answer_queries(table)
        duration = self.engine.total_cost() - before
        for rule in self.rules:
            rule.trigger.record_predictions(len(predictions), duration)
        return predictions, labels

    def record_errors(self, errors: np.ndarray) -> None:
        """Hand a served chunk's per-row prequential errors to every
        trigger (before the chunk is observed)."""
        for rule in self.rules:
            rule.trigger.record_errors(errors)

    def observe(self, table: Table) -> Optional[ProactiveOutcome]:
        """Ingest a training chunk; maybe run a proactive training.

        Returns the :class:`ProactiveOutcome` of the last proactive
        training that fired for this chunk, else ``None``.
        """
        self._chunk_index += 1
        tracer = self.telemetry.tracer
        with tracer.span(
            names.PLATFORM_OBSERVE,
            chunk=self._chunk_index,
            rows=table.num_rows,
        ):
            raw, features = self.manager.process_training_chunk(
                table,
                online_statistics=self.config.online_statistics,
                store=True,
            )
            ledger = self.telemetry.ledger
            if ledger is not None:
                ledger.record_chunk(
                    raw.timestamp,
                    table.digest(),
                    table.num_rows,
                    scope=self.lineage_scope,
                )
            if self.config.online_update and features.num_rows:
                self.manager.online_step(
                    features, self.config.online_batch_rows
                )
            outcome = None
            for rule in self.rules:
                now = self.engine.total_cost()
                count = int(rule.trigger.should_train(self._chunk_index, now))
                tracer.point(
                    names.SCHEDULER_DECISION,
                    chunk=self._chunk_index,
                    fired=count > 0,
                    now=now,
                )
                self.telemetry.metrics.counter(
                    names.SCHEDULER_FIRED
                    if count
                    else names.SCHEDULER_SKIPPED
                ).inc()
                if count:
                    outcome = self._run_rule(rule, count)
        if self.reliability.due(self.chunks_observed):
            self.checkpoint()
        return outcome

    def _run_rule(self, rule: TrainingRule, count: int) -> ProactiveOutcome:
        """Run a rule's trainings ``count`` times over, under its sampler
        if it has one (restored afterwards, also when one fails)."""
        data_manager = self.data_manager
        regular = data_manager.sampler
        if rule.sampler is not None:
            data_manager.sampler = rule.sampler
        try:
            for __ in range(count * rule.repeats):
                outcome = self._run_proactive_training()
        finally:
            data_manager.sampler = regular
        return outcome

    def _run_proactive_training(self) -> ProactiveOutcome:
        with self.telemetry.tracer.span(
            names.PLATFORM_PROACTIVE_TRAINING, chunk=self._chunk_index
        ) as span:
            started_at = self.engine.total_cost()
            samples = self.manager.sample_for_training(
                self.config.sample_size_chunks,
                recompute_statistics=not self.config.online_statistics,
            )
            outcome = self.proactive.run(samples)
            duration = self.engine.total_cost() - started_at
            # Report the *full* duration (sampling + re-materialization
            # + SGD) to every trigger — that is the T of formula (6).
            for rule in self.rules:
                rule.trigger.record_training(started_at, duration)
            full_outcome = ProactiveOutcome(
                objective=outcome.objective,
                rows=outcome.rows,
                chunks=outcome.chunks,
                chunks_materialized=outcome.chunks_materialized,
                started_at=started_at,
                duration=duration,
            )
            self.proactive_outcomes.append(full_outcome)
            span.set(
                chunks=outcome.chunks,
                materialized=outcome.chunks_materialized,
                rows=outcome.rows,
                objective=outcome.objective,
            )
            self.telemetry.metrics.observe(
                names.PROACTIVE_DURATION, duration
            )
            if self.telemetry.ledger is not None:
                self._record_training_lineage(samples, full_outcome)
            if self.registry is not None:
                self._register_candidate(full_outcome)
            return full_outcome

    def _record_training_lineage(
        self, samples, outcome: ProactiveOutcome
    ) -> None:
        """Record this SGD burst in the attached provenance ledger.

        Each sampled chunk's weight is its fraction of the burst's
        training rows — the number blame queries aggregate. The
        pipeline's component fingerprints are recorded first
        (content-addressed, so unchanged components dedup to one
        node).
        """
        ledger = self.telemetry.ledger
        components = [
            ledger.record_component(fingerprint)
            for fingerprint in pipeline_fingerprint(
                self.manager.pipeline
            )
        ]
        total_rows = sum(
            sample.chunk.num_rows for sample in samples
        )
        chunks = []
        for sample in samples:
            node = ledger.chunk_id(
                sample.timestamp, self.lineage_scope
            )
            weight = (
                sample.chunk.num_rows / total_rows
                if total_rows
                else 0.0
            )
            chunks.append((node, weight))
        self.last_training_event = ledger.record_training(
            chunks,
            components,
            rows=outcome.rows,
            objective=outcome.objective,
            scope=self.lineage_scope,
        )

    def _register_candidate(self, outcome: ProactiveOutcome) -> None:
        """Snapshot the freshly-trained state as a registry candidate."""
        info = self.registry.register(
            *self.manager.artifacts,
            chunks_observed=self.chunks_observed,
            training_cost=outcome.duration,
            metrics={
                "objective": outcome.objective,
                "rows_trained": outcome.rows,
            },
            lineage_event=self.last_training_event,
        )
        self.registered_versions.append(info)
        self.telemetry.tracer.point(
            names.PLATFORM_REGISTER_CANDIDATE,
            version=info.version,
            parent=info.parent,
            chunk=self._chunk_index,
        )

    # ------------------------------------------------------------------
    # Checkpointing and recovery
    # ------------------------------------------------------------------
    def install_artifacts(
        self,
        pipeline: Pipeline,
        model: LinearSGDModel,
        optimizer: Optimizer,
    ) -> None:
        """Swap the deployed artifacts (crash recovery / rollback).

        Rebuilds the proactive trainer so it trains the new
        model/optimizer pair; its instance counter carries over.
        """
        self.manager.replace_artifacts(pipeline, model, optimizer)
        instances = self.proactive.instances_run
        self.proactive = ProactiveTrainer(
            self.manager.trainer, self.engine
        )
        self.proactive.instances_run = instances

    def state_dict(self) -> Dict[str, Any]:
        """Every mutable thing outside the artifact bundle and storage.

        Storage contents are captured by the checkpoint store's
        manifest/spill mechanism; artifacts by the
        :class:`~repro.persistence.DeploymentBundle`. This covers the
        rest: stream position, every trigger's state (in rule order),
        sampler RNG and μ accounting, the cost-model clock, and
        proactive-training history.
        """
        return {
            "chunk_index": self._chunk_index,
            "triggers": [
                rule.trigger.state_dict() for rule in self.rules
            ],
            "data_manager": self.data_manager.state_dict(),
            "cost": self.engine.tracker.state_dict(),
            "proactive_outcomes": list(self.proactive_outcomes),
            "proactive_instances": self.proactive.instances_run,
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore state captured by :meth:`state_dict`."""
        triggers = state["triggers"]
        if len(triggers) != len(self.rules):
            raise ValidationError(
                f"state of {len(triggers)} trigger(s) for a platform "
                f"built with {len(self.rules)} training rule(s)"
            )
        self._chunk_index = int(state["chunk_index"])
        for rule, trigger_state in zip(self.rules, triggers):
            rule.trigger.load_state_dict(trigger_state)
        self.data_manager.load_state_dict(state["data_manager"])
        self.engine.tracker.load_state_dict(state["cost"])
        self.proactive_outcomes = list(state["proactive_outcomes"])
        self.proactive.instances_run = int(
            state["proactive_instances"]
        )

    def checkpoint(self) -> Path:
        """Write a full platform checkpoint now; returns its path."""
        return self.reliability.write(
            self.chunks_observed,
            "platform",
            DeploymentBundle(*self.manager.artifacts),
            self.state_dict(),
            storage=self.data_manager.storage,
        )

    @classmethod
    def recover(
        cls,
        checkpoint: Union[CheckpointStore, CheckpointConfig, str],
        config: Optional[ContinuousConfig] = None,
        cost_model: Optional[CostModel] = None,
        telemetry: Optional[Telemetry] = None,
        registry: Optional["ModelRegistry"] = None,
        fault_plan: Union[FaultPlan, FaultInjector, None] = None,
        retry: Union[RetryPolicy, Retrier, None] = None,
        rules: Sequence[TrainingRule] = (),
    ) -> "ContinuousDeploymentPlatform":
        """Rebuild a platform from the latest valid checkpoint.

        Falls back to older checkpoints when the newest fails its
        checksum. ``config``/``cost_model``/``rules`` must match the
        crashed platform's (configuration is not checkpointed — state is).
        The caller resumes feeding :meth:`predict`/:meth:`observe`
        from the saved cursor (``chunks_observed``); the continuation
        is byte-identical to an uninterrupted run.
        """
        loader = ReliabilityRuntime(checkpoint, telemetry=telemetry)
        saved = loader.load("platform")
        platform = cls(
            saved.bundle.pipeline,
            saved.bundle.model,
            saved.bundle.optimizer,
            config=config,
            cost_model=cost_model,
            telemetry=telemetry,
            registry=registry,
            checkpoint=loader.store,
            fault_plan=fault_plan,
            retry=retry,
            rules=rules,
        )
        platform.load_state_dict(saved.state)
        platform.reliability.restore(
            saved, platform.data_manager.storage
        )
        return platform

    def __repr__(self) -> str:
        return (
            f"ContinuousDeploymentPlatform(chunks={self.chunks_observed}, "
            f"proactive_runs={len(self.proactive_outcomes)})"
        )

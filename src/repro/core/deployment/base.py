"""Deployment base class: the prequential test-then-train loop.

All approaches share the same outer loop (§5.1's deployment
process): for every arriving chunk, first answer it as prediction
queries (test), then use it as training data (train). Subclasses only
differ in what "train" means — the training *action*:

* online — one online SGD step;
* full retraining — online step + a retraining over all raw history;
* continuous — online step + proactive training on sampled history.

*When* the action fires is not a subclass but a
:class:`~repro.core.scheduler.Scheduler` handed to the deployment:
periodical and threshold are full retraining under a static and a
degradation trigger, drift-aware is continuous with one more training
rule. The loop hands each served chunk's per-row errors to the
prequential scorer and to the triggers.

The loop records, after every chunk, the cumulative prequential error
and the cumulative deployment cost — exactly the two series plotted in
Figure 4 of the paper.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.core.config import check_online_batch_rows
from repro.core.pipeline_manager import PipelineManager
from repro.data.manager import DataManager
from repro.data.storage import ChunkStorage
from repro.data.table import Table
from repro.exceptions import ValidationError
from repro.execution.cost import CostBreakdown, CostModel
from repro.execution.engine import LocalExecutionEngine
from repro.ml.metrics import PrequentialTracker, errors_from_predictions
from repro.ml.models.base import LinearSGDModel
from repro.ml.optim.base import Optimizer
from repro.ml.sgd import TrainingResult
from repro.obs import names
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.persistence import DeploymentBundle
from repro.pipeline.component import Features
from repro.pipeline.pipeline import Pipeline
from repro.reliability.checkpoint import (
    CheckpointConfig,
    CheckpointStore,
    PlatformCheckpoint,
)
from repro.reliability.faults import FaultInjector, FaultPlan
from repro.reliability.retry import Retrier, RetryPolicy
from repro.reliability.runtime import RecoveryInfo, ReliabilityRuntime
from repro.utils.rng import SeedLike


@dataclass
class DeploymentResult:
    """Everything a deployment run produced.

    ``error_history[i]`` / ``cost_history[i]`` are the cumulative
    prequential error and cumulative cost after chunk ``i`` — the
    Figure 4 series. ``counters`` holds event counts (online updates,
    proactive trainings, retrainings).
    """

    approach: str
    error_history: List[float] = field(default_factory=list)
    cost_history: List[float] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    cost_breakdown: Optional[CostBreakdown] = None
    #: Virtual-clock duration of each training event beyond the online
    #: updates (proactive trainings or full retrainings). §5.5 of the
    #: paper compares these: long retrainings leave the served model
    #: stale, sub-second proactive trainings do not.
    training_durations: List[float] = field(default_factory=list)
    #: The run's telemetry bundle (``None`` when telemetry was not
    #: enabled): structured events and metrics.
    telemetry: Optional[Telemetry] = None
    #: Set when this run resumed from a checkpoint (see
    #: :meth:`Deployment.recover`); ``None`` for uninterrupted runs.
    recovery: Optional[RecoveryInfo] = None

    @property
    def chunks_processed(self) -> int:
        return len(self.error_history)

    @property
    def final_error(self) -> float:
        """Cumulative prequential error at the end of the deployment."""
        if not self.error_history:
            raise ValidationError("deployment processed no chunks")
        return self.error_history[-1]

    @property
    def average_error(self) -> float:
        """Mean of the cumulative-error curve (paper's comparisons)."""
        if not self.error_history:
            raise ValidationError("deployment processed no chunks")
        return float(np.mean(self.error_history))

    @property
    def total_cost(self) -> float:
        """Cumulative deployment cost at the end (cost units)."""
        if not self.cost_history:
            raise ValidationError("deployment processed no chunks")
        return self.cost_history[-1]

    @property
    def average_training_duration(self) -> float:
        """Mean duration of a training event (0 when none ran).

        For the continuous approach this is the per-instance proactive
        training time; for the periodical/threshold baselines, the
        per-retraining time — the model-staleness window of §5.5.
        """
        if not self.training_durations:
            return 0.0
        return float(np.mean(self.training_durations))

    @property
    def max_training_duration(self) -> float:
        """Longest single training event (worst-case staleness)."""
        if not self.training_durations:
            return 0.0
        return float(max(self.training_durations))


class Deployment(ABC):
    """Shared prequential loop and strategy hooks of every approach.

    Every approach runs on a
    :class:`~repro.core.pipeline_manager.PipelineManager` and its
    execution engine (``self.manager`` / ``self.engine`` /
    ``self.data_manager``, see :meth:`_wire`), so serving, cost,
    checkpoint artifacts and the storage spill are written here once.
    A subclass writes :meth:`_observe` — what "train" means — hands
    :meth:`_record_errors` to whatever decides when, and adds its own
    counters to :meth:`_finalize` and :meth:`state_dict`.

    Parameters
    ----------
    metric:
        ``"classification"`` — prequential misclassification rate
        (URL); or ``"regression"`` — prequential RMSE in the model's
        (log) target space, i.e. RMSLE for the Taxi setup.
    telemetry:
        Optional observability bundle; subclasses thread it through
        their engines and platforms. The finished
        :class:`DeploymentResult` carries it back to the caller.
    checkpoint:
        Optional checkpointing: a directory path, a
        :class:`~repro.reliability.checkpoint.CheckpointConfig`, or a
        prebuilt store. When set, the loop writes a full platform
        checkpoint every ``cadence_chunks`` chunks and
        :meth:`recover` can resume an interrupted run.
    fault_plan:
        Optional deterministic fault injection (see
        :mod:`repro.reliability.faults`); the injector is shared with
        the subclass's storage so occurrence counts are global.
    retry:
        Optional :class:`~repro.reliability.retry.RetryPolicy` masking
        transient (``io_error``) faults on stream and storage reads.
    """

    #: Set by subclasses; used in reports and figures.
    approach: str = "base"

    manager: PipelineManager
    engine: LocalExecutionEngine
    data_manager: DataManager

    def __init__(
        self,
        metric: str = "classification",
        telemetry: Optional[Telemetry] = None,
        checkpoint: Union[
            CheckpointStore, CheckpointConfig, str, None
        ] = None,
        fault_plan: Union[FaultPlan, FaultInjector, None] = None,
        retry: Union[RetryPolicy, Retrier, None] = None,
    ) -> None:
        self.prequential = PrequentialTracker.for_metric(metric)
        self.metric = metric
        self.telemetry = (
            telemetry if telemetry is not None else NULL_TELEMETRY
        )
        self.reliability = ReliabilityRuntime(
            checkpoint=checkpoint,
            fault_plan=fault_plan,
            retry=retry,
            telemetry=self.telemetry,
        )

    def _wire(
        self,
        pipeline: Pipeline,
        model: LinearSGDModel,
        optimizer: Optimizer,
        cost_model: Optional[CostModel],
        seed: SeedLike,
        online_batch_rows: Optional[int],
    ) -> None:
        """Build a baseline's engine, data manager and pipeline manager.

        The baselines keep at most raw history (a full retraining
        reads it back); no feature materialization budget applies.
        """
        check_online_batch_rows(online_batch_rows)
        self.online_batch_rows = online_batch_rows
        self.online_updates = 0
        self.engine = LocalExecutionEngine(
            cost_model, telemetry=self.telemetry
        )
        self.data_manager = DataManager(seed=seed, telemetry=self.telemetry)
        self.reliability.guard_reads(self.data_manager)
        self.manager = PipelineManager(
            pipeline=pipeline,
            model=model,
            optimizer=optimizer,
            data_manager=self.data_manager,
            engine=self.engine,
        )

    # ------------------------------------------------------------------
    # Strategy hooks
    # ------------------------------------------------------------------
    @property
    def model(self) -> LinearSGDModel:
        """The currently deployed model."""
        return self.manager.model

    def initial_fit(self, tables: List[Table], **kwargs) -> TrainingResult:
        """Pre-deployment training on the initial dataset."""
        return self.manager.initial_fit(tables, **kwargs)

    def _predict(self, table: Table) -> Tuple[np.ndarray, np.ndarray]:
        """Serve the chunk as prediction queries: (predictions, labels)."""
        return self.manager.answer_queries(table)

    def _record_errors(self, errors: np.ndarray) -> None:
        """The served chunk's per-row errors, for the approach's
        triggers (called before the chunk is observed)."""

    @abstractmethod
    def _observe(self, table: Table, chunk_index: int) -> None:
        """Consume the chunk as training data."""

    def _online_update(self, features: Features) -> None:
        """One online SGD pass over a freshly preprocessed chunk."""
        if features.num_rows:
            self.manager.online_step(features, self.online_batch_rows)
            self.online_updates += 1

    def _current_cost(self) -> float:
        """Cumulative cost units so far."""
        return self.engine.total_cost()

    def _finalize(self, result: DeploymentResult) -> None:
        """Fill counters/breakdowns into ``result`` (extend per approach)."""
        result.cost_breakdown = self.engine.tracker.breakdown()

    # ------------------------------------------------------------------
    # Checkpoint/recovery hooks
    # ------------------------------------------------------------------
    def _artifacts(self) -> Tuple[Pipeline, LinearSGDModel, Optimizer]:
        """The deployed (pipeline, model, optimizer) triple."""
        return self.manager.artifacts

    def _install_artifacts(
        self,
        pipeline: Pipeline,
        model: LinearSGDModel,
        optimizer: Optimizer,
    ) -> None:
        """Replace the deployed artifacts with checkpointed ones."""
        self.manager.replace_artifacts(pipeline, model, optimizer)

    def state_dict(self) -> Dict[str, Any]:
        """Mutable state to checkpoint (extend per approach)."""
        return {
            "cost": self.engine.tracker.state_dict(),
            "data_manager": self.data_manager.state_dict(),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore state captured by :meth:`state_dict` (with the
        entries of :meth:`logs` under their keys)."""
        self.engine.tracker.load_state_dict(state["cost"])
        self.data_manager.load_state_dict(state["data_manager"])

    def logs(self) -> Dict[str, List[Any]]:
        """The *live* lists of this approach's state that only grow,
        by their key in :meth:`load_state_dict`'s state: a checkpoint
        keeps them as logs, outside :meth:`state_dict`."""
        return {}

    def _chunk_store(self) -> ChunkStorage:
        """The chunk storage to spill/restore."""
        return self.data_manager.storage

    # ------------------------------------------------------------------
    # The prequential loop
    # ------------------------------------------------------------------
    def run(self, stream: Iterable[Table]) -> DeploymentResult:
        """Process the deployment stream test-then-train.

        Chunks that come out of the serving path empty (every row
        filtered as anomalous) still feed training but contribute no
        prequential measurement for that step; the previous cumulative
        value is carried forward so the histories stay aligned with
        chunk indices.
        """
        return self._run_loop(stream, resume=None)

    def recover(self, stream: Iterable[Table]) -> DeploymentResult:
        """Resume an interrupted run from the latest valid checkpoint.

        The deployment must have been constructed with the same
        configuration (and ``checkpoint=`` option) as the crashed run —
        but **not** ``initial_fit``: all fitted state comes from the
        checkpoint. ``stream`` must be the same deterministic stream
        the crashed run consumed; the already-processed prefix is
        regenerated and discarded, and processing resumes at the saved
        cursor. The completed result is byte-identical (predictions,
        cost totals, telemetry counters) to an uninterrupted run.
        """
        return self._run_loop(
            stream, resume=self.reliability.load(self.approach)
        )

    def _run_loop(
        self,
        stream: Iterable[Table],
        resume: Optional[PlatformCheckpoint],
    ) -> DeploymentResult:
        result = DeploymentResult(approach=self.approach)
        iterator = iter(stream)
        chunk_index = 0
        if resume is not None:
            self._restore_checkpoint(resume, result)
            self.reliability.skip_chunks(iterator, resume.cursor)
            chunk_index = resume.cursor
        while True:
            try:
                table = self.reliability.read_chunk(iterator)
            except StopIteration:
                break
            predictions, labels = self._predict(table)
            errors = errors_from_predictions(
                self.prequential.kind, predictions, labels
            )
            self._record_errors(errors)
            chunk_error = self.prequential.score_errors(errors)
            cumulative = self.prequential.value()
            result.error_history.append(cumulative)
            # Point (not span): the per-chunk quality signal the
            # health monitor windows, kept out of the span stream
            # so profile digests are unaffected.
            self.telemetry.tracer.point(
                names.PLATFORM_CHUNK,
                chunk=chunk_index,
                rows=int(len(labels)),
                error=chunk_error,
                cumulative=cumulative,
            )
            self._observe(table, chunk_index)
            result.cost_history.append(self._current_cost())
            if self.reliability.due(chunk_index + 1):
                self._write_checkpoint(chunk_index + 1, result)
            chunk_index += 1
        self._finalize(result)
        result.recovery = self.reliability.recovery
        self.telemetry.flush_metrics()
        if self.telemetry.enabled:
            result.telemetry = self.telemetry
        return result

    def _write_checkpoint(
        self, cursor: int, result: DeploymentResult
    ) -> None:
        # The histories only grow, so they are logs, not state; the
        # prequential tracker's history equals ``error_history`` and
        # is saved once, as it.
        self.reliability.write(
            cursor,
            self.approach,
            DeploymentBundle(*self._artifacts()),
            {
                "prequential": self.prequential.head_state(),
                "deployment": self.state_dict(),
            },
            storage=self._chunk_store(),
            logs={
                "error_history": result.error_history,
                "cost_history": result.cost_history,
                **self.logs(),
            },
        )

    def _restore_checkpoint(
        self, checkpoint: PlatformCheckpoint, result: DeploymentResult
    ) -> None:
        bundle = checkpoint.bundle
        self._install_artifacts(
            bundle.pipeline, bundle.model, bundle.optimizer
        )
        state = checkpoint.state
        logs = self.reliability.read_logs(checkpoint)
        errors = logs["error_history"]
        self.prequential.load_state_dict(
            {**state["prequential"], "history": errors}
        )
        result.error_history = list(errors)
        result.cost_history = list(logs["cost_history"])
        self.load_state_dict(
            {**state["deployment"], **{key: logs[key] for key in self.logs()}}
        )
        self.reliability.restore(checkpoint, self._chunk_store(), logs)

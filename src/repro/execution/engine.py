"""Local execution engine.

The paper's architecture (§4.5) delegates "the actual data
transformation and model training" to an execution engine (Spark in
the prototype). :class:`LocalExecutionEngine` plays that role here:
every pipeline transform, statistics update, gradient step, and
prediction flows through it so that cost-model charges are applied
uniformly, whichever deployment approach is running.

Each operation is written once, inside one ``tracer.span`` — the only
place its work meets a wall clock — and a chunk's online update is one
operation, however many SGD steps. With telemetry attached the span
carries the values-scanned count; the disabled tracer's is a no-op.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.execution.cost import CostModel, CostTracker
from repro.ml.batch import Block, Matrix, matrix_values, open_block
from repro.ml.models.base import LinearSGDModel
from repro.ml.sgd import SGDTrainer, TrainingResult
from repro.obs import names
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.pipeline.component import Batch, Features, PipelineComponent
from repro.pipeline.pipeline import Pipeline, PrefixMemo, require_features
from repro.utils.rng import SeedLike


class LocalExecutionEngine:
    """Runs pipeline and training work with uniform cost accounting.

    Parameters
    ----------
    cost_model:
        Prices for the deterministic cost tracker; defaults apply.
    telemetry:
        Optional observability bundle; when enabled, the engine binds
        the run's virtual clock to it and emits one span per
        executed operation.
    """

    def __init__(
        self,
        cost_model: Optional[CostModel] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.tracker = CostTracker(cost_model)
        self.telemetry = (
            telemetry if telemetry is not None else NULL_TELEMETRY
        )
        self.telemetry.bind_clock(self.total_cost)

    # ------------------------------------------------------------------
    # Pipeline execution
    # ------------------------------------------------------------------
    def online_pass(
        self, pipeline: Pipeline, batch: Batch, memo: PrefixMemo | None = None
    ) -> Features:
        """Online path: update statistics then transform (training
        data). ``memo``, here and in :meth:`transform_only`, lets two
        passes over one batch share its stateless prefix; span and
        cost charges do not depend on it."""
        with self.telemetry.tracer.span(
            names.ENGINE_ONLINE_PASS,
            values=PipelineComponent.batch_num_values(batch),
        ):
            return require_features(
                pipeline.update_transform(batch, self.tracker, memo)
            )

    def transform_only(
        self, pipeline: Pipeline, batch: Batch, memo: PrefixMemo | None = None
    ) -> Features:
        """Serving / re-materialization path (no statistics writes)."""
        with self.telemetry.tracer.span(
            names.ENGINE_TRANSFORM_ONLY,
            values=PipelineComponent.batch_num_values(batch),
        ):
            return require_features(
                pipeline.transform(batch, self.tracker, memo)
            )

    def serve_transform(self, pipeline: Pipeline, batch: Batch) -> Batch:
        """Transform a prediction-query batch (may stop mid-pipeline
        for pipelines whose terminal stage needs labels)."""
        with self.telemetry.tracer.span(
            names.ENGINE_SERVE_TRANSFORM,
            values=PipelineComponent.batch_num_values(batch),
        ):
            return pipeline.transform(batch, self.tracker)

    # ------------------------------------------------------------------
    # Training execution
    # ------------------------------------------------------------------
    def train_step(
        self,
        trainer: SGDTrainer,
        features: Matrix | Block,
        targets: Optional[np.ndarray] = None,
        start: int = 0,
        stop: Optional[int] = None,
        objective: bool = True,
    ) -> Optional[float]:
        """One SGD iteration on rows ``[start, stop)`` of the block —
        all of it, for proactive training."""
        block = open_block(features, targets)
        values = block.num_values(start, stop)
        with self.telemetry.tracer.span(
            names.ENGINE_TRAIN_STEP, values=values, steps=1
        ):
            return trainer.step(
                block, None, self.tracker, start, stop, objective
            )

    def online_update(
        self, trainer: SGDTrainer, features: Features, batch_rows: int | None
    ) -> float:
        """The online update of one arrived chunk, as one operation
        under one ``engine.train_step`` span (``steps`` iterations over
        ``values`` stored values): an SGD iteration per consecutive
        range of ``batch_rows`` rows (the last one shorter; ``None``:
        the whole chunk) of a block opened once — never a sliced copy.
        Returns the last range's objective, the only one evaluated; a
        chunk without rows takes no step, emits nothing, gives 0.0."""
        block = Block(features.matrix, features.labels)
        rows = block.rows
        if not rows:
            return 0.0
        size = rows if batch_rows is None else batch_rows
        steps = -(-rows // size)
        with self.telemetry.tracer.span(
            names.ENGINE_TRAIN_STEP, values=block.num_values(), steps=steps
        ):
            for start in range(0, rows, size):
                stop = min(start + size, rows)
                objective = trainer.step(
                    block, None, self.tracker, start, stop, stop == rows
                )
        return objective

    def train_full(
        self,
        trainer: SGDTrainer,
        features: Matrix,
        targets: np.ndarray,
        batch_size: Optional[int] = None,
        max_iterations: int = 100,
        tolerance: float = 1e-4,
        seed: SeedLike = None,
    ) -> TrainingResult:
        """A complete (re)training run — the periodical baseline."""
        with self.telemetry.tracer.span(
            names.ENGINE_TRAIN_FULL, values=matrix_values(features)
        ) as span:
            result = trainer.train(
                features,
                targets,
                batch_size=batch_size,
                max_iterations=max_iterations,
                tolerance=tolerance,
                seed=seed,
                tracker=self.tracker,
            )
            span.set(iterations=result.iterations, converged=result.converged)
            return result

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def predict(
        self, model: LinearSGDModel, features: Matrix
    ) -> np.ndarray:
        """Score a batch, charging prediction cost.

        The charge happens inside the span, like every other engine
        operation, so the span's cost duration covers it.
        """
        values = matrix_values(features)
        with self.telemetry.tracer.span(
            names.ENGINE_PREDICT, values=values
        ):
            predictions = model.predict(features)
            self.tracker.charge_prediction(values, "predict")
        return predictions

    def predict_batch(self, model, matrices) -> "list[np.ndarray]":
        """Score many feature blocks with one vectorized kernel.

        The micro-batched serving path: a single ``model.predict``
        over the stacked blocks, one prediction charge for the total
        value count, and per-block results that are bit-identical to
        per-block :meth:`predict` calls (row-independent kernels; see
        :mod:`repro.ml.batch`).
        """
        from repro.ml.batch import predict_batch

        values = sum(matrix_values(m) for m in matrices)
        with self.telemetry.tracer.span(
            names.ENGINE_PREDICT, values=values, blocks=len(matrices)
        ):
            predictions = predict_batch(model, matrices)
            self.tracker.charge_prediction(values, "predict")
        return predictions

    # ------------------------------------------------------------------
    # Simulated storage I/O
    # ------------------------------------------------------------------
    def read_chunk(self, values: int, label: str) -> None:
        """Charge a simulated disk read of one chunk of ``values``."""
        self.tracker.charge_disk_read(values, chunks=1, label=label)
        self.telemetry.tracer.point(
            names.ENGINE_READ_CHUNK, values=values, label=label
        )

    def total_cost(self) -> float:
        """Virtual-clock total in cost units."""
        return self.tracker.total()

    def reset(self) -> None:
        """Zero the cost tracker, so one engine can be reused across
        runs without carrying charges over."""
        self.tracker.reset()

    def __repr__(self) -> str:
        return f"LocalExecutionEngine(cost={self.total_cost():.4f})"

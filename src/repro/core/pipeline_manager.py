"""Pipeline manager (§4.3) — the platform's central component.

Owns the deployed pipeline and model and mediates every data movement:

* training chunks take the *online* path (``update`` then
  ``transform`` per component — online statistics computation) and the
  resulting feature chunks go to the data manager for storage;
* prediction queries take the *transform-only* path through the very
  same components, then the model scores them (train/serve
  consistency). The two also share one chunk's stateless work: the
  prequential step answers a chunk, then trains on it, so
  ``answer_queries`` keeps the stateless prefix's output
  (:class:`~repro.pipeline.pipeline.PrefixMemo`) and ``training_pass``
  on that same table object starts from it — statistics are still read
  old, updated, then applied, and every cost charge is still made;
* proactive training asks the data manager for a sample, supplying the
  re-materialization callback for evicted chunks;
* periodical retraining replays the stored raw history through the
  pipeline and runs a full SGD training, warm-started or cold.

Both of these re-read stored raw chunks, the same ones again and
again; a re-read chunk's stateless prefix stays beside it in the
storage (:meth:`~repro.data.storage.ChunkStorage.derived`), so it is
computed once per run rather than once per re-read. In a store that
can evict, that once is the step that stores the chunk: it keeps the
prefix it computed instead of dropping it.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.data.chunk import FeatureChunk, RawChunk
from repro.data.manager import DataManager, SampledChunk, SampleRequest
from repro.data.table import Table
from repro.execution.engine import LocalExecutionEngine
from repro.exceptions import PipelineError
from repro.ml.models.base import LinearSGDModel
from repro.ml.optim.base import Optimizer
from repro.ml.sgd import SGDTrainer, TrainingResult
from repro.pipeline.component import Features, union_features
from repro.pipeline.pipeline import Pipeline, PrefixMemo


class PipelineManager:
    """Wires pipeline, model, optimizer, data manager, and engine.

    Parameters
    ----------
    pipeline:
        The deployed preprocessing pipeline.
    model:
        The deployed model (updated in place).
    optimizer:
        SGD update rule; shared by online updates, proactive training,
        and retraining so its state is one continuous stream.
    data_manager:
        Chunk storage and sampling front-end.
    engine:
        Execution engine (cost accounting).
    """

    def __init__(
        self,
        pipeline: Pipeline,
        model: LinearSGDModel,
        optimizer: Optimizer,
        data_manager: DataManager,
        engine: LocalExecutionEngine,
    ) -> None:
        self.pipeline = pipeline
        self.model = model
        self.optimizer = optimizer
        self.data_manager = data_manager
        self.engine = engine
        self.trainer = SGDTrainer(model, optimizer)
        # The last answered table's prefix, until a training pass
        # takes it; never saved.
        self._memo: Optional[PrefixMemo] = None

    @property
    def artifacts(self) -> Tuple[Pipeline, LinearSGDModel, Optimizer]:
        """The deployed (pipeline, model, optimizer) triple."""
        return (self.pipeline, self.model, self.optimizer)

    def replace_artifacts(
        self,
        pipeline: Pipeline,
        model: LinearSGDModel,
        optimizer: Optimizer,
    ) -> None:
        """Swap in a different (pipeline, model, optimizer) triple.

        Used by crash recovery (installing checkpointed artifacts) and
        rollbacks. The trainer is rebuilt so it references the new
        model/optimizer pair; anything else holding a reference to the
        manager keeps working unchanged. Every stateless prefix kept
        so far is forgotten: another pipeline may parse differently.
        """
        self.pipeline = pipeline
        self.model = model
        self.optimizer = optimizer
        self.trainer = SGDTrainer(model, optimizer)
        self._memo = None
        self.data_manager.storage.forget_derived()

    # ------------------------------------------------------------------
    # Initial training (pre-deployment)
    # ------------------------------------------------------------------
    def initial_fit(
        self,
        tables: List[Table],
        batch_size: Optional[int] = None,
        max_iterations: int = 200,
        tolerance: float = 1e-4,
        seed=None,
        store: bool = False,
    ) -> TrainingResult:
        """Fit pipeline statistics and train the initial model.

        Every table takes the online path (fitting statistics), the
        features are unioned, and a full SGD run trains the model —
        the paper's batch-gradient initial training. With ``store``
        the chunks also enter the data manager (so deployment starts
        with the initial data as history, as in the paper).
        """
        if not tables:
            raise PipelineError("initial_fit needs at least one table")
        parts: List[Features] = []
        for table in tables:
            raw = memo = None
            if store:
                raw = self.data_manager.ingest(table)
                memo = self._kept_prefix(raw, None)
            features = self.engine.online_pass(self.pipeline, table, memo)
            if store:
                self._store_features(raw, features)
            parts.append(features)
        batch = union_features(parts)
        return self.engine.train_full(
            self.trainer,
            batch.matrix,
            batch.labels,
            batch_size=batch_size,
            max_iterations=max_iterations,
            tolerance=tolerance,
            seed=seed,
        )

    # ------------------------------------------------------------------
    # Deployment-time training data
    # ------------------------------------------------------------------
    def process_training_chunk(
        self,
        table: Table,
        online_statistics: bool = True,
        store: bool = True,
    ) -> Tuple[RawChunk, Features]:
        """Ingest one raw training chunk and preprocess it.

        With ``online_statistics`` the chunk takes the online path and
        the statistics of every stateful component advance; without it
        (the NoOptimization ablation) only the transform runs. With
        ``store`` the resulting feature chunk is materialized in the
        data manager, and a store that can evict keeps the chunk's
        stateless prefix beside it (:meth:`_kept_prefix`).
        """
        raw = self.data_manager.ingest(table)
        if store:
            self._memo = self._kept_prefix(raw, self._memo)
        features = self.training_pass(table, online_statistics)
        if store:
            self._store_features(raw, features)
        return raw, features

    def training_pass(
        self, table: Table, online_statistics: bool = True
    ) -> Features:
        """Preprocess one training table (nothing ingested or stored),
        starting from the stateless prefix :meth:`answer_queries`
        computed if ``table`` is the object it served last. Either way
        the memo is spent."""
        memo, self._memo = self._memo, None
        if online_statistics:
            return self.engine.online_pass(self.pipeline, table, memo)
        return self.engine.transform_only(self.pipeline, table, memo)

    def _kept_prefix(
        self, raw: RawChunk, memo: Optional[PrefixMemo]
    ) -> Optional[PrefixMemo]:
        """The memo the pass over the just-ingested ``raw`` should use.

        A store that can evict will re-read ``raw`` once its payload is
        gone, so the step's ``memo`` (if it holds ``raw.table``; else a
        fresh one this pass fills) is kept beside the chunk from now
        on, not dropped and computed again on the first re-read. An
        unbounded store keeps nothing until a re-read: ``memo`` as is.
        """
        storage = self.data_manager.storage
        if not storage.can_evict:
            return memo
        if memo is None or memo.source is not raw.table:
            memo = PrefixMemo()
        return storage.derived(raw, lambda: memo)

    def _store_features(self, raw: RawChunk, features: Features) -> None:
        chunk = FeatureChunk(
            timestamp=raw.timestamp,
            raw_reference=raw.timestamp,
            features=features.matrix,
            labels=features.labels,
        )
        self.data_manager.store_features(chunk)

    # ------------------------------------------------------------------
    # Online model update
    # ------------------------------------------------------------------
    def online_step(
        self, features: Features, batch_rows: Optional[int] = None
    ) -> float:
        """Online SGD on a freshly arrived chunk — one engine operation
        (:meth:`LocalExecutionEngine.online_update`). ``batch_rows=1``
        is classic point-at-a-time online gradient descent, the noisy
        baseline the paper's online deployment uses ("visits every
        incoming training data point only once"); ``None`` is one step
        on the whole chunk. Returns the last step's objective (0.0 for
        a chunk without rows)."""
        if batch_rows is not None and batch_rows < 1:
            raise PipelineError(f"batch_rows must be >= 1, got {batch_rows}")
        return self.engine.online_update(self.trainer, features, batch_rows)

    # ------------------------------------------------------------------
    # Prediction serving
    # ------------------------------------------------------------------
    def answer_queries(
        self, table: Table
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Serve a batch of prediction queries.

        Returns ``(predictions, true_labels)`` for the surviving rows
        (row filters may drop anomalies), enabling prequential
        evaluation by the caller.
        """
        self._memo = memo = PrefixMemo()
        features = self.engine.transform_only(self.pipeline, table, memo)
        predictions = self.engine.predict(self.model, features.matrix)
        return predictions, np.asarray(features.labels)

    # ------------------------------------------------------------------
    # Proactive training support
    # ------------------------------------------------------------------
    def sample_for_training(
        self,
        sample_size: int,
        recompute_statistics: bool = False,
    ) -> List[SampledChunk]:
        """Draw a proactive-training sample, re-materializing as needed.

        Re-materialization reads the raw chunk from (simulated) disk
        and re-runs the pipeline transform. With
        ``recompute_statistics`` (the NoOptimization ablation) a
        statistics scan per stateful component is charged as well,
        modelling the paper's "recomputes the required statistics of
        every component by scanning the data".
        """

        def materialize(raw: RawChunk) -> FeatureChunk:
            self.engine.read_chunk(raw.table.num_values, "rematerialize")
            if recompute_statistics:
                for component in self.pipeline.stateful_components:
                    self.engine.tracker.charge_statistics(
                        raw.table.num_values,
                        f"recompute:{component.name}",
                    )
            features = self._reread(raw, self.engine.transform_only)
            return FeatureChunk(
                timestamp=raw.timestamp,
                raw_reference=raw.timestamp,
                features=features.matrix,
                labels=features.labels,
            )

        return self.data_manager.sample(
            SampleRequest(size=sample_size), materialize
        )

    def _reread(self, raw: RawChunk, replay) -> Features:
        """Run a stored raw chunk through ``replay`` (one of the
        engine's two pipeline passes) from the stateless prefix kept
        beside it. The first re-read of a chunk computes that prefix
        and leaves it there, unless the step that stored the chunk
        already did; every later one starts at the first stateful
        component and only repeats the prefix's charges."""
        memo = self.data_manager.storage.derived(raw, PrefixMemo)
        return replay(self.pipeline, raw.table, memo)

    # ------------------------------------------------------------------
    # Periodical retraining (baseline)
    # ------------------------------------------------------------------
    def full_retrain(
        self,
        batch_size: Optional[int] = None,
        max_iterations: int = 200,
        tolerance: float = 1e-4,
        warm_start: bool = True,
        seed=None,
    ) -> TrainingResult:
        """Retrain on the entire stored raw history (§5.2 baseline).

        Every stored raw chunk is read back from (simulated) disk and
        re-transformed — the repeated preprocessing that dominates the
        periodical approach's cost. With ``warm_start`` the current
        pipeline statistics, model weights, and optimizer state carry
        over (TFX-style); without it everything resets and statistics
        are recomputed from scratch over the history.
        """
        timestamps = self.data_manager.storage.raw_timestamps
        if not timestamps:
            raise PipelineError("no stored history to retrain on")
        if not warm_start:
            self.pipeline.reset()
            self.model.reset()
            self.optimizer.reset()
        if warm_start:
            replay = self.engine.transform_only
        else:
            replay = self.engine.online_pass
        parts: List[Features] = []
        for timestamp in timestamps:
            raw = self.data_manager.read_raw(timestamp)
            self.engine.read_chunk(raw.table.num_values, "retrain_read")
            parts.append(self._reread(raw, replay))
        batch = union_features(parts)
        return self.engine.train_full(
            self.trainer,
            batch.matrix,
            batch.labels,
            batch_size=batch_size,
            max_iterations=max_iterations,
            tolerance=tolerance,
            seed=seed,
        )


"""Proactive trainer (§3.3 and §4.4 of the paper).

Each invocation is exactly one iteration of mini-batch SGD: the
pipeline manager hands over a sample of materialized feature chunks
and the current model, the trainer computes one gradient over their
union and applies one optimizer step. Because the optimizer carries
all cross-iteration state, proactive-training instances are
conditionally independent — they can run at arbitrary times without a
long-lived training loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.data.manager import SampledChunk
from repro.exceptions import ValidationError
from repro.execution.engine import LocalExecutionEngine
from repro.ml.batch import stack_matrices
from repro.ml.sgd import SGDTrainer
from repro.pipeline.component import Features


@dataclass(frozen=True)
class ProactiveOutcome:
    """Result of one proactive-training instance."""

    objective: float
    rows: int
    chunks: int
    chunks_materialized: int
    started_at: float
    duration: float


def combine_chunks(samples: Sequence[SampledChunk]) -> Features:
    """Union the sampled feature chunks into one training batch.

    This is the paper's ``context.union`` step before the SGD
    iteration. Dense and sparse chunks must not be mixed — a pipeline
    emits one representation consistently.
    """
    if not samples:
        raise ValidationError("cannot combine an empty sample")
    chunks = [sample.chunk for sample in samples]
    return Features(
        matrix=stack_matrices([chunk.features for chunk in chunks]),
        labels=np.concatenate([chunk.labels for chunk in chunks]),
    )


class ProactiveTrainer:
    """Executes single SGD iterations on sampled historical data.

    Parameters
    ----------
    trainer:
        The model/optimizer pair (state persists across instances).
    engine:
        Execution engine used to run (and cost-account) the step.
    """

    def __init__(
        self, trainer: SGDTrainer, engine: LocalExecutionEngine
    ) -> None:
        self.trainer = trainer
        self.engine = engine
        #: Number of proactive-training instances executed.
        self.instances_run = 0

    def run(self, samples: Sequence[SampledChunk]) -> ProactiveOutcome:
        """One proactive training over the sampled chunks.

        A sample whose every chunk is empty (all rows filtered as
        anomalous) yields a zero-row batch; the SGD step is skipped —
        there is no gradient to compute — and the outcome reports
        ``rows=0``.
        """
        started_at = self.engine.total_cost()
        batch = combine_chunks(samples)
        if batch.num_rows:
            objective = self.engine.train_step(
                self.trainer, batch.matrix, batch.labels
            )
        else:
            objective = 0.0
        duration = self.engine.total_cost() - started_at
        self.instances_run += 1
        return ProactiveOutcome(
            objective=objective,
            rows=batch.num_rows,
            chunks=len(samples),
            chunks_materialized=sum(
                1 for s in samples if s.was_materialized
            ),
            started_at=started_at,
            duration=duration,
        )

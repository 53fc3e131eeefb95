"""Mini-batch SGD training loop (Algorithm 1 of the paper).

:class:`SGDTrainer` binds a model to an optimizer and provides two
entry points:

* :meth:`SGDTrainer.step` — **one** iteration of mini-batch SGD on a
  given batch. This is exactly what proactive training executes per
  trigger (§3.3): sample → gradient → optimizer update.
* :meth:`SGDTrainer.train` — a full training run: repeated iterations
  with random mini-batches until convergence or an iteration cap.
  Used for initial training and for the periodical baseline's
  retraining.

Because the optimizer owns all cross-iteration state, iterations are
conditionally independent given (model parameters, optimizer state) —
the property §3.3 uses to justify running them at arbitrary times.

A step's gradient is one range of :meth:`LinearSGDModel.descend`, and
its update is ``Optimizer.step`` (``prepare`` + ``bind``). A step
given ``batch_rows`` runs the kernel itself, once over all the ranges
of a chunk, binding the update once: that is the online update
(``LocalExecutionEngine.online_update``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

import numpy as np

from repro.exceptions import ConvergenceWarning, ValidationError
from repro.ml.batch import Block, Matrix, open_block
from repro.ml.models.base import LinearSGDModel
from repro.ml.optim.base import Optimizer
from repro.utils.rng import SeedLike, ensure_rng

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.execution.cost import CostTracker


@dataclass
class TrainingResult:
    """Outcome of a :meth:`SGDTrainer.train` run."""

    iterations: int
    converged: bool
    final_objective: float
    objective_history: List[float] = field(default_factory=list)


class SGDTrainer:
    """Mini-batch SGD driver for a :class:`LinearSGDModel`.

    Parameters
    ----------
    model:
        The model to train (updated in place).
    optimizer:
        Update rule; its state persists across calls, enabling warm
        starting and proactive training.
    """

    def __init__(self, model: LinearSGDModel, optimizer: Optimizer) -> None:
        self.model = model
        self.optimizer = optimizer

    # ------------------------------------------------------------------
    def step(
        self,
        features: Matrix | Block,
        targets: Optional[np.ndarray] = None,
        tracker: Optional["CostTracker"] = None,
        start: int = 0,
        stop: Optional[int] = None,
        objective: bool = True,
        batch_rows: Optional[int] = None,
    ) -> Optional[float]:
        """One SGD iteration on rows ``[start, stop)`` of the given
        block (all of it by default); returns the objective, or
        ``None`` unevaluated when the caller passes ``objective=False``.

        The range *is* the mini-batch — sampling happens upstream (the
        data manager for proactive training, consecutive row ranges of
        the chunk itself for the online update). With ``batch_rows``,
        the step is a chunk's online update: an iteration per
        consecutive range of that many rows of ``[start, stop)``, in
        one call of the bound kernel
        (:meth:`~repro.ml.models.base.LinearSGDModel.descend`), then a
        training charge per range, in order; the objective is the last
        range's.
        """
        block = open_block(features, targets)
        model = self.model
        if batch_rows is not None:
            __, value = model.descend(
                block, self.optimizer, start, stop, batch_rows, objective
            )
            if tracker is not None:
                tracker.charge_training_steps(
                    block.range_values(batch_rows, start, stop), "sgd_step"
                )
            return value
        grad, value = model.gradient(block, None, start, stop, objective)
        params = model.params
        self.optimizer.step(params, grad, out=params)
        model.updates_applied += 1
        if tracker is not None:
            tracker.charge_training(block.num_values(start, stop), "sgd_step")
        return value

    def train(
        self,
        features: Matrix,
        targets: np.ndarray,
        batch_size: Optional[int] = None,
        max_iterations: int = 100,
        tolerance: float = 1e-4,
        seed: SeedLike = None,
        tracker: Optional["CostTracker"] = None,
    ) -> TrainingResult:
        """Run mini-batch SGD until convergence or ``max_iterations``.

        Parameters
        ----------
        batch_size:
            Mini-batch size; ``None`` uses the full batch each
            iteration (batch gradient descent, the paper's initial-
            training setting of sampling ratio 1.0).
        tolerance:
            Converged when the parameter-vector change (L2 norm,
            relative to ``1 + ‖params‖``) falls below this.
        """
        block = Block(features, targets)
        count = block.rows
        if count == 0:
            raise ValidationError("cannot train on an empty dataset")
        if batch_size is not None and batch_size < 1:
            raise ValidationError(
                f"batch_size must be >= 1, got {batch_size}"
            )
        if max_iterations < 1:
            raise ValidationError(
                f"max_iterations must be >= 1, got {max_iterations}"
            )
        rng = ensure_rng(seed)
        history: List[float] = []
        converged = False
        iterations = 0
        for iterations in range(1, max_iterations + 1):
            if batch_size is None or batch_size >= count:
                batch = block
            else:
                chosen = rng.choice(count, size=batch_size, replace=False)
                batch = Block(block.matrix[chosen], block.targets[chosen])
            before = self.model.params_vector()
            objective = self.step(batch, tracker=tracker)
            history.append(objective)
            after = self.model.params_vector()
            change = float(np.linalg.norm(after - before))
            scale = 1.0 + float(np.linalg.norm(after))
            if change / scale < tolerance:
                converged = True
                break
        if not converged:
            warnings.warn(
                f"SGD stopped at max_iterations={max_iterations} without "
                f"converging (tolerance={tolerance})",
                ConvergenceWarning,
                stacklevel=2,
            )
        return TrainingResult(
            iterations=iterations,
            converged=converged,
            final_objective=history[-1],
            objective_history=history,
        )

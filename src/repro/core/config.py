"""Configuration dataclasses for the deployment approaches.

Grouping the paper's two hyperparameter families (§2.2): *deployment*
hyperparameters (retraining frequency, amount of data, sample sizes,
materialization budget) live here; *training* hyperparameters
(learning-rate adaptation, regularization) live on the optimizer and
model objects themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.exceptions import ValidationError
from repro.utils.validation import check_positive, check_positive_int


@dataclass(frozen=True)
class ScheduleConfig:
    """Which proactive-training scheduler to build.

    ``kind="static"`` uses ``interval_chunks``; ``kind="dynamic"`` uses
    ``slack`` and ``initial_interval`` (formula 6); ``kind="none"``
    builds no scheduler: only the platform's own rules train.
    """

    kind: str = "static"
    interval_chunks: int = 5
    slack: float = 2.0
    initial_interval: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("static", "dynamic", "none"):
            raise ValidationError(
                f"schedule kind must be 'static', 'dynamic' or 'none', "
                f"got {self.kind!r}"
            )
        check_positive_int(self.interval_chunks, "interval_chunks")
        if check_positive(self.slack, "slack") < 1.0:
            raise ValidationError(f"slack must be >= 1, got {self.slack}")
        check_positive(self.initial_interval, "initial_interval")


@dataclass(frozen=True)
class PeriodicalConfig:
    """Periodical deployment: online updates + periodic full retraining.

    Parameters
    ----------
    retrain_every_chunks:
        Full retraining runs after every this many deployment chunks
        (the paper: every 10 days for URL, monthly for Taxi).
    max_epoch_iterations:
        Iteration cap for each retraining run.
    batch_size:
        Mini-batch size during retraining; ``None`` = full batch.
    tolerance:
        Convergence tolerance for retraining.
    warm_start:
        Reuse pipeline statistics, model weights, and optimizer state
        (TFX-style). Disabling is an ablation: each retraining then
        starts from scratch and must recompute statistics over the
        full history.
    """

    retrain_every_chunks: int = 50
    max_epoch_iterations: int = 200
    batch_size: Optional[int] = None
    tolerance: float = 1e-4
    warm_start: bool = True

    def __post_init__(self) -> None:
        if self.retrain_every_chunks < 1:
            raise ValidationError(
                f"retrain_every_chunks must be >= 1, "
                f"got {self.retrain_every_chunks}"
            )
        if self.max_epoch_iterations < 1:
            raise ValidationError(
                f"max_epoch_iterations must be >= 1, "
                f"got {self.max_epoch_iterations}"
            )
        if self.batch_size is not None and self.batch_size < 1:
            raise ValidationError(
                f"batch_size must be >= 1, got {self.batch_size}"
            )


def check_online_batch_rows(rows: Optional[int]) -> None:
    """Every approach's online-update slice: ``None`` or ``>= 1``."""
    if rows is not None and rows < 1:
        raise ValidationError(
            f"online_batch_rows must be >= 1, got {rows}"
        )


@dataclass(frozen=True)
class ContinuousConfig:
    """Continuous deployment: online updates + proactive training.

    Parameters
    ----------
    sample_size_chunks:
        Chunks per proactive-training sample (*s* in §3.2.2).
    schedule:
        When proactive training fires.
    sampler:
        ``"uniform"``, ``"window"``, or ``"time"``.
    window_size:
        Active window (chunks) for the window sampler.
    half_life:
        Decay half-life (chunks) for the time-based sampler.
    max_materialized_chunks:
        Materialization budget *m*; ``None`` = unbounded (materialize
        everything, the paper's materialization rate 1.0).
    online_statistics:
        Keep the online-statistics optimization on. Disabling is the
        paper's *NoOptimization* configuration: proactive training
        then re-reads raw chunks from disk and recomputes statistics.
    online_update:
        Apply an online SGD step per incoming chunk (the platform
        "also utilizes online learning methods", §1).
    online_batch_rows:
        Row-slice size for the online update (``None`` = whole chunk;
        ``1`` = point-at-a-time online gradient descent).
    """

    sample_size_chunks: int = 8
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    sampler: str = "time"
    window_size: Optional[int] = None
    half_life: Optional[float] = None
    max_materialized_chunks: Optional[int] = None
    online_statistics: bool = True
    online_update: bool = True
    online_batch_rows: Optional[int] = None

    def __post_init__(self) -> None:
        check_online_batch_rows(self.online_batch_rows)
        if self.sample_size_chunks < 1:
            raise ValidationError(
                f"sample_size_chunks must be >= 1, "
                f"got {self.sample_size_chunks}"
            )
        if self.sampler not in ("uniform", "window", "time"):
            raise ValidationError(
                f"sampler must be 'uniform', 'window', or 'time', "
                f"got {self.sampler!r}"
            )
        if self.sampler == "window" and self.window_size is None:
            raise ValidationError(
                "window sampler requires window_size"
            )
        if (
            self.max_materialized_chunks is not None
            and self.max_materialized_chunks < 0
        ):
            raise ValidationError(
                f"max_materialized_chunks must be >= 0, "
                f"got {self.max_materialized_chunks}"
            )

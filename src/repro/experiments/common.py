"""Shared scenario definitions for the experiments.

A :class:`Scenario` bundles everything one deployment run needs —
dataset generator, pipeline/model/optimizer factories, initial-training
settings, and the deployment hyperparameters of each approach — at a
chosen scale. Two scales exist:

* ``"bench"`` — the benchmark scale (hundreds of chunks; minutes of
  wall time for the full suite). This is the scale EXPERIMENTS.md
  records.
* ``"test"`` — a tiny scale for the integration test suite (tens of
  chunks; seconds).

The deployment hyperparameters mirror the paper's proportions: the
periodical baseline retrains ~12 times over the stream (URL: every 10
days of 120; Taxi: monthly over 17 months), and proactive training
fires every 5 chunks with a sample whose size matches the initial
training batch (§5.3: 16k/1M rows).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, Iterator, List, Optional

from repro.core.config import (
    ContinuousConfig,
    PeriodicalConfig,
    ScheduleConfig,
)
from repro.core.deployment import (
    ContinuousDeployment,
    Deployment,
    DeploymentResult,
    FullRetrainingDeployment,
    OnlineDeployment,
)
from repro.core.platform import ContinuousDeploymentPlatform
from repro.core.scheduler import DegradationTrigger
from repro.data.table import Table
from repro.datasets.taxi import (
    TAXI_FEATURE_COLUMNS,
    TaxiStreamGenerator,
    make_taxi_pipeline,
)
from repro.datasets.drift import GradualDrift
from repro.datasets.url import URLStreamGenerator, make_url_pipeline
from repro.exceptions import ValidationError
from repro.ml.models.base import LinearSGDModel
from repro.ml.models.linear_regression import LinearRegression
from repro.ml.models.svm import LinearSVM
from repro.ml.optim import Optimizer, make_optimizer
from repro.ml.regularizers import L2
from repro.obs.telemetry import Telemetry
from repro.pipeline.pipeline import Pipeline


@dataclass
class Scenario:
    """One dataset + pipeline + deployment parameterisation."""

    name: str
    metric: str
    seed: int
    make_pipeline: Callable[[], Pipeline]
    make_model: Callable[[], LinearSGDModel]
    make_optimizer: Callable[[], Optimizer]
    make_stream: Callable[[], Iterable[Table]]
    make_initial_data: Callable[[], list]
    initial_fit_kwargs: Dict = field(default_factory=dict)
    continuous_config: ContinuousConfig = field(
        default_factory=ContinuousConfig
    )
    periodical_config: PeriodicalConfig = field(
        default_factory=PeriodicalConfig
    )
    num_chunks: int = 0
    #: Row-slice size of the online update shared by every approach
    #: (1 = point-at-a-time online gradient descent, as in the paper).
    online_batch_rows: Optional[int] = None

    def fit(self, deployment, **kwargs):
        """Initial training of a deployment (or platform) built for
        this scenario; returns it for chaining."""
        deployment.initial_fit(
            self.make_initial_data(),
            seed=self.seed,
            **self.initial_fit_kwargs,
            **kwargs,
        )
        return deployment

    def with_continuous(self, **overrides) -> "Scenario":
        """Copy of the scenario with continuous-config overrides."""
        config = replace(self.continuous_config, **overrides)
        return replace(self, continuous_config=config)


class _GeneratedOnce:
    """A scenario's tables, generated once and read by every run.

    A stream is a pure function of the generator's seed, so the
    ``make_stream`` iterators and ``make_initial_data`` lists of one
    scenario — and of its ``dataclasses.replace`` copies, which keep
    the closures — hand out the same :class:`Table` objects (immutable
    by contract). The stream fills as the furthest iterator pulls: a
    consumer that times each pull still sees generation, and one that
    stops early generates only its prefix.
    """

    def __init__(self, generator, initial_rows: int) -> None:
        self._generator = generator
        self._initial_rows = initial_rows
        self._initial: Optional[List[Table]] = None
        self._chunks: List[Table] = []

    def initial_data(self) -> List[Table]:
        """A fresh list (callers own it) of the shared day-0 tables."""
        if self._initial is None:
            self._initial = self._generator.initial_data(
                self._initial_rows
            )
        return list(self._initial)

    def stream(self) -> Iterator[Table]:
        """The deployment stream from chunk 0, shared tables."""
        chunks = self._chunks
        for index in range(self._generator.num_chunks):
            if index == len(chunks):
                chunks.append(self._generator.chunk(index))
            yield chunks[index]


_SCALES = ("bench", "test")


def url_scenario(scale: str = "bench", seed: int = 7) -> Scenario:
    """The URL deployment scenario (SVM, misclassification rate).

    Bench scale: 600 chunks x 50 rows, 1024 hashed features, gradual
    drift with a growing feature space — 1/20th of the paper's 12,000
    chunks with the same qualitative dynamics.
    """
    _check_scale(scale)
    if scale == "bench":
        num_chunks, rows, hash_dim, initial_rows = 600, 50, 1024, 1000
        interval, sample_chunks, retrain_every = 5, 80, 50
        init_iters, retrain_iters = 500, 150
    else:
        num_chunks, rows, hash_dim, initial_rows = 40, 25, 256, 200
        interval, sample_chunks, retrain_every = 5, 8, 10
        init_iters, retrain_iters = 120, 60

    tables = _GeneratedOnce(
        URLStreamGenerator(
            num_chunks=num_chunks,
            rows_per_chunk=rows,
            base_features=400,
            new_features_per_chunk=2,
            drift=GradualDrift(0.02),
            seed=seed,
        ),
        initial_rows,
    )
    return Scenario(
        name=f"url-{scale}",
        metric="classification",
        seed=seed,
        make_pipeline=lambda: make_url_pipeline(hash_features=hash_dim),
        make_model=lambda: LinearSVM(hash_dim, regularizer=L2(1e-3)),
        make_optimizer=lambda: make_optimizer("adam", learning_rate=0.05),
        make_stream=tables.stream,
        make_initial_data=tables.initial_data,
        initial_fit_kwargs={
            "max_iterations": init_iters,
            "tolerance": 1e-6,
        },
        continuous_config=ContinuousConfig(
            sample_size_chunks=sample_chunks,
            schedule=ScheduleConfig(
                kind="static", interval_chunks=interval
            ),
            sampler="time",
            half_life=max(num_chunks // 16, 1),
            online_batch_rows=1,
        ),
        periodical_config=PeriodicalConfig(
            retrain_every_chunks=retrain_every,
            max_epoch_iterations=retrain_iters,
            batch_size=None,
            tolerance=1e-5,
        ),
        num_chunks=num_chunks,
        online_batch_rows=1,
    )


def taxi_scenario(scale: str = "bench", seed: int = 3) -> Scenario:
    """The Taxi deployment scenario (linear regression, RMSLE).

    Bench scale: 400 hourly chunks x 80 rows with a stationary
    concept, ~1/30th of the paper's 12,382 chunks.
    """
    _check_scale(scale)
    if scale == "bench":
        num_chunks, rows, initial_rows = 400, 80, 2000
        interval, sample_chunks, retrain_every = 5, 60, 33
        init_iters, retrain_iters = 500, 200
    else:
        num_chunks, rows, initial_rows = 30, 40, 400
        interval, sample_chunks, retrain_every = 5, 6, 10
        init_iters, retrain_iters = 150, 60

    tables = _GeneratedOnce(
        TaxiStreamGenerator(
            num_chunks=num_chunks, rows_per_chunk=rows, seed=seed
        ),
        initial_rows,
    )
    num_features = len(TAXI_FEATURE_COLUMNS)
    return Scenario(
        name=f"taxi-{scale}",
        metric="regression",
        seed=seed,
        make_pipeline=make_taxi_pipeline,
        make_model=lambda: LinearRegression(
            num_features, regularizer=L2(1e-4)
        ),
        make_optimizer=lambda: make_optimizer(
            "rmsprop", learning_rate=0.05
        ),
        make_stream=tables.stream,
        make_initial_data=tables.initial_data,
        initial_fit_kwargs={
            "max_iterations": init_iters,
            "tolerance": 1e-7,
        },
        continuous_config=ContinuousConfig(
            sample_size_chunks=sample_chunks,
            schedule=ScheduleConfig(
                kind="static", interval_chunks=interval
            ),
            sampler="time",
            half_life=max(num_chunks // 16, 1),
            online_batch_rows=1,
        ),
        periodical_config=PeriodicalConfig(
            retrain_every_chunks=retrain_every,
            max_epoch_iterations=retrain_iters,
            batch_size=None,
            tolerance=1e-5,
        ),
        num_chunks=num_chunks,
        online_batch_rows=1,
    )


def _check_scale(scale: str) -> None:
    if scale not in _SCALES:
        raise ValidationError(
            f"scale must be one of {_SCALES}, got {scale!r}"
        )


#: Approach names accepted by :func:`make_deployment`.
APPROACHES = ("online", "periodical", "threshold", "continuous")


def make_deployment(
    scenario: Scenario,
    approach: str,
    telemetry: Optional[Telemetry] = None,
    checkpoint=None,
    fault_plan=None,
    retry=None,
) -> Deployment:
    """Construct (but do not fit) a deployment for the scenario.

    One factory shared by the CLI's ``run``/``recover`` commands, the
    reliability experiments, and the golden recovery tests — they all
    need to build *identically configured* deployments, with only the
    reliability options varying. The approaches are rows of
    *(training action, trigger)*: online has neither; periodical and
    threshold are full retraining under a static and a degradation
    trigger; continuous is proactive training under the scenario's
    schedule.
    """
    if approach not in APPROACHES:
        raise ValidationError(
            f"approach must be one of {APPROACHES}, got {approach!r}"
        )
    parts = (
        scenario.make_pipeline(),
        scenario.make_model(),
        scenario.make_optimizer(),
    )
    common = dict(
        metric=scenario.metric,
        telemetry=telemetry,
        checkpoint=checkpoint,
        fault_plan=fault_plan,
        retry=retry,
    )
    if approach == "online":
        return OnlineDeployment(
            *parts, online_batch_rows=scenario.online_batch_rows, **common
        )
    if approach == "continuous":
        return ContinuousDeployment(
            *parts,
            config=scenario.continuous_config,
            seed=scenario.seed,
            **common,
        )
    deployment = FullRetrainingDeployment(
        *parts,
        config=scenario.periodical_config,
        # Periodical is the config's own ``retrain_every_chunks``.
        trigger=DegradationTrigger() if approach == "threshold" else None,
        seed=scenario.seed,
        online_batch_rows=scenario.online_batch_rows,
        **common,
    )
    deployment.approach = approach
    return deployment


def make_platform(
    scenario: Scenario,
    telemetry: Optional[Telemetry] = None,
    registry=None,
    parts=None,
) -> ContinuousDeploymentPlatform:
    """A continuous platform on the scenario's config and seed.

    Built over fresh artifacts and given the scenario's initial fit
    (stored, so proactive training can sample it) — or, with the
    ``parts`` of an already fitted ``(pipeline, model, optimizer)``
    triple such as a loaded bundle, wrapped around those as they are.
    """
    fitted = parts is not None
    if not fitted:
        parts = (
            scenario.make_pipeline(),
            scenario.make_model(),
            scenario.make_optimizer(),
        )
    platform = ContinuousDeploymentPlatform(
        *parts,
        config=scenario.continuous_config,
        seed=scenario.seed,
        telemetry=telemetry,
        registry=registry,
    )
    if not fitted:
        scenario.fit(platform, store=True)
    return platform


# ----------------------------------------------------------------------
# Runners
# ----------------------------------------------------------------------
def run_approach(
    scenario: Scenario,
    approach: str,
    telemetry: Optional[Telemetry] = None,
) -> DeploymentResult:
    """Build, fit and run one approach on the scenario's own stream."""
    deployment = make_deployment(scenario, approach, telemetry=telemetry)
    return scenario.fit(deployment).run(scenario.make_stream())


def run_online(
    scenario: Scenario,
    telemetry: Optional[Telemetry] = None,
) -> DeploymentResult:
    """Run the online baseline on the scenario."""
    return run_approach(scenario, "online", telemetry)


def run_periodical(
    scenario: Scenario,
    telemetry: Optional[Telemetry] = None,
) -> DeploymentResult:
    """Run the periodical baseline on the scenario."""
    return run_approach(scenario, "periodical", telemetry)


def run_continuous(
    scenario: Scenario,
    config: Optional[ContinuousConfig] = None,
    telemetry: Optional[Telemetry] = None,
) -> DeploymentResult:
    """Run the continuous approach (optionally overriding its config)."""
    if config is not None:
        scenario = replace(scenario, continuous_config=config)
    return run_approach(scenario, "continuous", telemetry)

"""``repro`` — Continuous Deployment of Machine Learning Pipelines.

A from-scratch reproduction of Derakhshan et al., EDBT 2019: a
platform that keeps deployed ML pipelines fresh by *proactive
training* (scheduled single SGD iterations over samples of the
history) instead of periodical full retraining, accelerated by online
statistics computation and dynamic materialization of preprocessed
feature chunks.

Quickstart::

    from repro import (
        ContinuousDeployment, ContinuousConfig,
        URLStreamGenerator, make_url_pipeline,
        LinearSVM, Adam, L2,
    )

    gen = URLStreamGenerator(num_chunks=100, seed=7)
    pipeline = make_url_pipeline(hash_features=256)
    model = LinearSVM(num_features=256, regularizer=L2(1e-3))
    deployment = ContinuousDeployment(
        pipeline, model, Adam(0.01),
        config=ContinuousConfig(sample_size_chunks=4),
        metric="classification", seed=7,
    )
    deployment.initial_fit(gen.initial_data())
    result = deployment.run(gen.stream())
    print(result.final_error, result.total_cost)
"""

from repro.core import (
    ContinuousConfig,
    ContinuousDeployment,
    ContinuousDeploymentPlatform,
    DegradationTrigger,
    Deployment,
    DeploymentResult,
    DynamicScheduler,
    FullRetrainingDeployment,
    OnlineDeployment,
    PeriodicalConfig,
    PipelineManager,
    ProactiveTrainer,
    ScheduleConfig,
    Scheduler,
    StaticScheduler,
    TrainingRule,
)
from repro.data import (
    ChunkStorage,
    DataManager,
    FeatureChunk,
    RawChunk,
    Table,
    TimeBasedSampler,
    UniformSampler,
    WindowBasedSampler,
)
from repro.datasets import (
    TaxiStreamGenerator,
    URLStreamGenerator,
    make_taxi_pipeline,
    make_url_pipeline,
)
from repro.execution import CostModel, CostTracker, LocalExecutionEngine
from repro.ml import (
    AdaDelta,
    AdaGrad,
    Adam,
    ConstantLR,
    L1,
    L2,
    LinearRegression,
    LinearSVM,
    LogisticRegression,
    Momentum,
    RMSProp,
    SGDTrainer,
)
from repro.obs import (
    JsonlSink,
    MetricsRegistry,
    Telemetry,
    Tracer,
    format_summary,
    summarize_trace,
)
from repro.pipeline import Pipeline, PipelineComponent
from repro.serving import (
    GateConfig,
    ModelRegistry,
    QualityGate,
    RolloutController,
    ServedBatch,
    ServingEndpoint,
    VersionInfo,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "ContinuousDeploymentPlatform",
    "PipelineManager",
    "ProactiveTrainer",
    "Scheduler",
    "StaticScheduler",
    "DynamicScheduler",
    "DegradationTrigger",
    "TrainingRule",
    "Deployment",
    "DeploymentResult",
    "OnlineDeployment",
    "FullRetrainingDeployment",
    "ContinuousDeployment",
    "ScheduleConfig",
    "PeriodicalConfig",
    "ContinuousConfig",
    # data
    "Table",
    "RawChunk",
    "FeatureChunk",
    "ChunkStorage",
    "DataManager",
    "UniformSampler",
    "WindowBasedSampler",
    "TimeBasedSampler",
    # pipeline
    "Pipeline",
    "PipelineComponent",
    # ml
    "LinearSVM",
    "LinearRegression",
    "LogisticRegression",
    "SGDTrainer",
    "Adam",
    "RMSProp",
    "AdaDelta",
    "AdaGrad",
    "Momentum",
    "ConstantLR",
    "L1",
    "L2",
    # execution
    "CostModel",
    "CostTracker",
    "LocalExecutionEngine",
    # observability
    "Telemetry",
    "Tracer",
    "MetricsRegistry",
    "JsonlSink",
    "format_summary",
    "summarize_trace",
    # serving
    "ModelRegistry",
    "VersionInfo",
    "ServingEndpoint",
    "ServedBatch",
    "QualityGate",
    "GateConfig",
    "RolloutController",
    # datasets
    "URLStreamGenerator",
    "TaxiStreamGenerator",
    "make_url_pipeline",
    "make_taxi_pipeline",
]

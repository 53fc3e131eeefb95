"""Machine-learning pipeline framework.

Implements the paper's pipeline abstraction (§4.3): components with an
``update`` method (online statistics computation, §3.1) and a
``transform`` method (pure preprocessing), chained into a
:class:`~repro.pipeline.pipeline.Pipeline` whose single transform path
serves both training data and prediction queries — the train/serve
consistency guarantee of §4.3.
"""

from repro.pipeline.component import (
    ComponentKind,
    PipelineComponent,
    StatelessComponent,
)
from repro.pipeline.fingerprint import (
    component_fingerprint,
    pipeline_fingerprint,
)
from repro.pipeline.pipeline import Pipeline
from repro.pipeline.statistics import (
    RunningMinMax,
    RunningMoments,
)

__all__ = [
    "PipelineComponent",
    "StatelessComponent",
    "ComponentKind",
    "Pipeline",
    "RunningMoments",
    "RunningMinMax",
    "component_fingerprint",
    "pipeline_fingerprint",
]

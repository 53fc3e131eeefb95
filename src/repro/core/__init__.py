"""The paper's contribution: the continuous deployment platform.

* :mod:`repro.core.scheduler` — when a training runs (§4.1, §5.2).
* :mod:`repro.core.proactive` — one SGD iteration per trigger (§3.3).
* :mod:`repro.core.pipeline_manager` — the central component wiring
  pipeline, model, data manager, and execution engine (§4.3).
* :mod:`repro.core.platform` — the assembled platform (Figure 3).
* :mod:`repro.core.deployment` — the three training actions compared
  in Experiment 1 (online, full retraining, continuous).
"""

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
from repro.core.pipeline_manager import PipelineManager
from repro.core.platform import ContinuousDeploymentPlatform, TrainingRule
from repro.core.proactive import ProactiveTrainer
from repro.core.scheduler import (
    DegradationTrigger,
    DynamicScheduler,
    Scheduler,
    StaticScheduler,
)

__all__ = [
    "ScheduleConfig",
    "PeriodicalConfig",
    "ContinuousConfig",
    "Scheduler",
    "StaticScheduler",
    "DynamicScheduler",
    "DegradationTrigger",
    "TrainingRule",
    "ProactiveTrainer",
    "PipelineManager",
    "ContinuousDeploymentPlatform",
    "Deployment",
    "DeploymentResult",
    "OnlineDeployment",
    "FullRetrainingDeployment",
    "ContinuousDeployment",
]

"""The deployment approaches compared in Experiment 1 (§5.2)."""

from repro.core.deployment.base import Deployment, DeploymentResult
from repro.core.deployment.continuous import ContinuousDeployment
from repro.core.deployment.online import OnlineDeployment
from repro.core.deployment.retraining import FullRetrainingDeployment

__all__ = [
    "Deployment",
    "DeploymentResult",
    "OnlineDeployment",
    "FullRetrainingDeployment",
    "ContinuousDeployment",
]

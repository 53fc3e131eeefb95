"""Periodical deployment baseline (§5.2, TFX/Velox-style).

Online SGD between retrainings, plus a full retraining over the entire
stored raw history every ``retrain_every_chunks`` chunks (see
:mod:`repro.core.deployment.retraining` for the retraining itself).
"""

from __future__ import annotations

import numpy as np

from repro.core.deployment.base import DeploymentResult
from repro.core.deployment.retraining import FullRetrainingDeployment


class PeriodicalDeployment(FullRetrainingDeployment):
    """Online updates + periodic full retraining on all history."""

    approach = "periodical"

    def _should_retrain(self, chunk_index: int) -> bool:
        return (chunk_index + 1) % self.config.retrain_every_chunks == 0

    def _finalize(self, result: DeploymentResult) -> None:
        super()._finalize(result)
        result.counters["retrain_iterations"] = int(
            np.sum([r.iterations for r in self.retrainings])
        )

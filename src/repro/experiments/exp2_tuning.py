"""Experiment 2 (part 1) — system tuning (Table 3 + Figure 5, §5.3).

Table 3: a grid over learning-rate adaptation techniques (Adam,
RMSProp, AdaDelta) and L2 regularization strengths (1e-2, 1e-3, 1e-4),
scored on a held-out split of the *initial* training data.

Figure 5: the best regularization per adaptation technique is then
deployed (continuous deployment) on a prefix of the deployment stream;
the paper's finding to reproduce is that the initial-training ranking
carries over to deployment — so hyperparameters can be tuned before
deploying.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.deployment import ContinuousDeployment
from repro.exceptions import ValidationError
from repro.execution.engine import LocalExecutionEngine
from repro.experiments.common import Scenario
from repro.obs.telemetry import Telemetry
from repro.ml.metrics import misclassification_rate, rmsle_from_log
from repro.ml.optim import make_optimizer
from repro.ml.regularizers import L2
from repro.ml.sgd import SGDTrainer

ADAPTATIONS = ("adam", "rmsprop", "adadelta")
REG_STRENGTHS = (1e-2, 1e-3, 1e-4)

GridKey = Tuple[str, float]


def _build_optimizer(adaptation: str, scenario: Scenario):
    """Optimizer for one grid cell.

    Adam/RMSProp share the scenario's learning rate. AdaDelta has no
    global learning rate (its selling point); its epsilon is raised to
    1e-4 so its characteristic slow start fits the iteration budget of
    these scaled-down runs (with Zeiler's 1e-6 it cannot reach the
    Taxi intercept scale within the budget).
    """
    if adaptation == "adadelta":
        return make_optimizer("adadelta", epsilon=1e-4)
    return make_optimizer(adaptation, learning_rate=0.05)


def _holdout_error(
    scenario: Scenario, adaptation: str, strength: float
) -> float:
    """Train on 70% of the initial data, score on the rest."""
    pipeline = scenario.make_pipeline()
    model = scenario.make_model()
    model.regularizer = L2(strength)
    engine = LocalExecutionEngine()
    tables = scenario.make_initial_data()
    if len(tables) != 1:
        raise ValidationError("grid search expects one initial table")
    table = tables[0]
    cut = int(table.num_rows * 0.7)
    train_table = table.head(cut)
    eval_table = table.take(list(range(cut, table.num_rows)))

    train = engine.online_pass(pipeline, train_table)
    trainer = SGDTrainer(model, _build_optimizer(adaptation, scenario))
    trainer.train(
        train.matrix,
        train.labels,
        seed=scenario.seed,
        **scenario.initial_fit_kwargs,
    )
    held_out = engine.transform_only(pipeline, eval_table)
    predictions = model.predict(held_out.matrix)
    if scenario.metric == "classification":
        return misclassification_rate(held_out.labels, predictions)
    return rmsle_from_log(held_out.labels, predictions)


def table3(
    scenario: Scenario,
    adaptations: Sequence[str] = ADAPTATIONS,
    strengths: Sequence[float] = REG_STRENGTHS,
) -> Dict[GridKey, float]:
    """Initial-training grid search (one dataset's half of Table 3)."""
    return {
        (adaptation, strength): _holdout_error(
            scenario, adaptation, strength
        )
        for adaptation in adaptations
        for strength in strengths
    }


def best_per_adaptation(
    grid: Mapping[GridKey, float],
) -> Dict[str, float]:
    """Best regularization strength per adaptation (Table 3's bold)."""
    best: Dict[str, Tuple[float, float]] = {}
    for (adaptation, strength), error in grid.items():
        current = best.get(adaptation)
        if current is None or error < current[1]:
            best[adaptation] = (strength, error)
    return {name: pair[0] for name, pair in best.items()}


def figure5(
    scenario: Scenario,
    best: Mapping[str, float],
    deploy_fraction: float = 0.1,
    telemetry: Optional[Telemetry] = None,
) -> Dict[str, List[float]]:
    """Deploy the per-adaptation best configs on a stream prefix.

    Returns the cumulative-error history per adaptation technique —
    the Figure 5 curves.
    """
    if not 0.0 < deploy_fraction <= 1.0:
        raise ValidationError(
            f"deploy_fraction must be in (0, 1], got {deploy_fraction}"
        )
    prefix = max(int(scenario.num_chunks * deploy_fraction), 1)
    histories: Dict[str, List[float]] = {}
    for adaptation, strength in best.items():
        model = scenario.make_model()
        model.regularizer = L2(strength)
        deployment = ContinuousDeployment(
            scenario.make_pipeline(),
            model,
            _build_optimizer(adaptation, scenario),
            config=scenario.continuous_config,
            metric=scenario.metric,
            seed=scenario.seed,
            telemetry=telemetry,
        )
        result = scenario.fit(deployment).run(
            islice(scenario.make_stream(), prefix)
        )
        histories[adaptation] = list(result.error_history)
    return histories


def ranking_agreement(
    grid: Mapping[GridKey, float],
    deployed: Mapping[str, List[float]],
) -> bool:
    """Does the initial-training winner also win after deployment?

    This is the paper's conclusion from Experiment 2: the same
    hyperparameters that win initial training win deployment, so
    proactive training can be tuned offline.
    """
    best = best_per_adaptation(grid)
    initial_winner = min(
        best, key=lambda name: grid[(name, best[name])]
    )
    deployed_winner = min(
        deployed, key=lambda name: float(np.mean(deployed[name]))
    )
    return initial_winner == deployed_winner

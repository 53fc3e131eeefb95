"""Data-centric training triggers (the Modyn idea).

Instead of every tenant retraining on a private timer, the fleet
decides *which* tenant trains next from what its data has been doing:
how many rows arrived since its last proactive training, how sharply
its recent prequential error moved, and how stale its model is. Each
signal maps to a dimensionless urgency score; the scheduler turns
``weight x (1 + urgency)`` into a priority.

Everything here is a pure function of the
:class:`TenantSignals` snapshot — no clocks, no RNG — so the same
fleet history always produces the same schedule. What the fleet
decided reaches a tenant through its platform's one training rule, a
:class:`GrantTrigger`, which also keeps the errors the drift score is
read from.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Dict

import numpy as np

from repro.core.scheduler import Scheduler
from repro.exceptions import ValidationError
from repro.fleet.spec import STRATEGIES

#: Recent/previous window width (chunks) for the drift score.
_DRIFT_WINDOW = 3


@dataclass(frozen=True)
class TenantSignals:
    """One tenant's per-epoch snapshot, as the scheduler sees it."""

    tenant: int
    #: Rows ingested since the tenant's last proactive training.
    new_rows: int
    #: Relative recent-vs-previous prequential error inflation
    #: (0 = flat or improving; 0.5 = recent errors 50% worse).
    drift_score: float
    #: Epochs since the tenant last trained (or since the run began).
    staleness_epochs: int
    #: Budget weight (copied from the spec; the scheduler works from
    #: signals alone so replays need nothing else).
    weight: float
    strategy: str = "continuous"
    #: False once the tenant's stream is exhausted.
    active: bool = True

    def __post_init__(self) -> None:
        if self.tenant < 0:
            raise ValidationError(
                f"tenant index must be >= 0, got {self.tenant}"
            )
        if self.strategy not in STRATEGIES:
            raise ValidationError(
                f"strategy must be one of {STRATEGIES}, "
                f"got {self.strategy!r}"
            )
        if self.weight <= 0:
            raise ValidationError(
                f"weight must be > 0, got {self.weight}"
            )

    @property
    def wants_training(self) -> bool:
        """Training-eligible: active and not opted out (``online``)."""
        return self.active and self.strategy != "online"


@dataclass(frozen=True)
class TriggerPolicy:
    """How the three data signals combine into one urgency score.

    * volume: ``new_rows / volume_rows`` — a tenant sitting on a full
      sample's worth of unseen rows scores 1.
    * drift: ``drift_gain x drift_score`` — error inflation dominates
      when a concept actually moved.
    * staleness: ``staleness_epochs / staleness_epochs_norm`` — a slow
      ramp so quiet tenants still rotate through.

    ``periodic`` tenants ignore volume/drift and spike to
    ``periodic_urgency`` once ``periodic_epochs`` have passed since
    their last training.
    """

    volume_rows: int = 160
    drift_gain: float = 6.0
    staleness_epochs_norm: int = 8
    periodic_epochs: int = 4
    periodic_urgency: float = 4.0

    def __post_init__(self) -> None:
        if self.volume_rows < 1:
            raise ValidationError(
                f"volume_rows must be >= 1, got {self.volume_rows}"
            )
        if self.staleness_epochs_norm < 1:
            raise ValidationError(
                f"staleness_epochs_norm must be >= 1, "
                f"got {self.staleness_epochs_norm}"
            )
        if self.periodic_epochs < 1:
            raise ValidationError(
                f"periodic_epochs must be >= 1, "
                f"got {self.periodic_epochs}"
            )
        if self.drift_gain < 0 or self.periodic_urgency < 0:
            raise ValidationError(
                "drift_gain and periodic_urgency must be >= 0"
            )

    def urgency(self, signals: TenantSignals) -> float:
        """Dimensionless urgency >= 0; 0 for opted-out tenants."""
        if not signals.wants_training:
            return 0.0
        if signals.strategy == "periodic":
            if signals.staleness_epochs >= self.periodic_epochs:
                return self.periodic_urgency
            return 0.0
        volume = signals.new_rows / self.volume_rows
        drift = self.drift_gain * max(0.0, signals.drift_score)
        staleness = signals.staleness_epochs / self.staleness_epochs_norm
        return volume + drift + staleness


class GrantTrigger(Scheduler):
    """A fleet tenant's training rule: fires the slots the fleet
    granted, and keeps the tenant's drift window.

    Armed with the epoch's slot count before the tenant's last chunk
    of the epoch; that chunk's ``observe`` gets the count (the rule
    runs ``count x repeats`` trainings) and disarms it. Unlike a
    :class:`~repro.core.scheduler.DegradationTrigger`'s, the error
    window is never cleared by a training.
    """

    def __init__(self) -> None:
        self.slots = 0
        #: The last ``2 x _DRIFT_WINDOW`` measured chunks' mean errors.
        self.window: deque = deque(maxlen=2 * _DRIFT_WINDOW)

    def arm(self, slots: int) -> None:
        """Fire ``slots`` slots at the next :meth:`should_train`."""
        self.slots = slots

    def should_train(self, chunk_index: int, now: float) -> int:
        slots, self.slots = self.slots, 0
        return slots

    def record_errors(self, errors: np.ndarray) -> None:
        if len(errors):
            self.window.append(float(np.sum(errors)) / len(errors))

    def drift_score(self) -> float:
        """Recent-vs-previous mean error inflation (>= 0)."""
        if len(self.window) < 2 * _DRIFT_WINDOW:
            return 0.0
        errors = list(self.window)
        recent = sum(errors[_DRIFT_WINDOW:]) / _DRIFT_WINDOW
        previous = sum(errors[:_DRIFT_WINDOW]) / _DRIFT_WINDOW
        if previous <= 1e-9:
            return 0.0
        return max(0.0, recent / previous - 1.0)

    def state_dict(self) -> Dict[str, Any]:
        return {"slots": self.slots, "window": list(self.window)}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self.slots = int(state["slots"])
        self.window = deque(
            [float(e) for e in state["window"]], maxlen=2 * _DRIFT_WINDOW
        )

"""Rollout controller: the promotion state machine.

Ties the registry, the endpoint, and the quality gate together::

    idle ──stage()──▶ shadow/canary ──sustained win──▶ monitoring
                          │                                │
                          │ regression / drift             │ regression
                          ▼                                ▼
                   candidate rejected              registry.rollback()
                   (live unchanged)               (previous live back)
                          │                                │
                          ▼                                ▼
                        idle ◀─────────────────────────── idle

While a candidate is staged, every served batch feeds the
:class:`~repro.serving.gate.QualityGate`. A sustained win promotes:
the registry's live pointer moves, the endpoint swaps the candidate
in, and a :class:`~repro.serving.gate.BaselineMonitor` keeps watching
the newly-live version against the incumbent's frozen error level. A
regression at any stage reverts automatically — before promotion the
candidate is rejected and the live version never changes; after
promotion the registry rolls back to the previous live version.

Every transition lands in the obs trace (``rollout.*`` points) and
the metrics registry (``rollout.*`` counters), and is appended to
:attr:`RolloutController.log` for offline inspection.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.exceptions import ServingError
from repro.ml.metrics import metric_kind
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.obs import names
from repro.serving.endpoint import ServedBatch, ServingEndpoint
from repro.serving.gate import (
    BaselineMonitor,
    GateConfig,
    GateDecision,
    QualityGate,
    errors_from_predictions,
)
from repro.serving.registry import ModelRegistry

#: Controller states.
STATES = ("idle", "shadow", "canary", "monitoring")


class RolloutController:
    """Drives candidates through staged rollout with automatic
    promotion and rollback.

    Parameters
    ----------
    registry, endpoint:
        The version store and the serving front-end (the endpoint
        must serve from the same registry).
    metric:
        ``"classification"`` (error rate) or ``"regression"`` (RMSE
        in the model's target space), as in the deployments.
    config:
        Gate thresholds; shared by staging gates and post-promotion
        monitors.
    telemetry:
        Optional observability bundle for transition events.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        endpoint: ServingEndpoint,
        metric: str = "classification",
        config: Optional[GateConfig] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if endpoint.registry is not registry:
            raise ServingError(
                "endpoint serves a different registry than the "
                "controller manages"
            )
        if metric not in ("classification", "regression"):
            raise ServingError(
                f"metric must be 'classification' or 'regression', "
                f"got {metric!r}"
            )
        self.registry = registry
        self.endpoint = endpoint
        self.kind = metric_kind(metric)
        self.config = config if config is not None else GateConfig()
        self.telemetry = (
            telemetry if telemetry is not None else NULL_TELEMETRY
        )
        self.state = "idle"
        self.gate: Optional[QualityGate] = None
        self.monitor: Optional[BaselineMonitor] = None
        #: Transition log: dicts with at least ``action`` and ``version``.
        self.log: List[Dict[str, object]] = []

    # ------------------------------------------------------------------
    def stage(
        self, version: str, mode: str = "canary", fraction: float = 0.1
    ) -> None:
        """Attach a candidate version for staged evaluation.

        Staging is allowed from ``idle`` and from ``monitoring`` (a
        new candidate supersedes the watch on the previous rollout).
        """
        if self.state in ("shadow", "canary"):
            raise ServingError(
                f"cannot stage {version}: a rollout of "
                f"{self.endpoint.candidate_version} is in progress"
            )
        info = self.registry.get(version)
        if info.status != "candidate":
            raise ServingError(
                f"only candidates can be staged; {version} is "
                f"{info.status}"
            )
        self.monitor = None
        self.endpoint.attach_candidate(version, mode=mode, fraction=fraction)
        self.gate = QualityGate(self.kind, self.config)
        self.state = mode
        self._transition(
            "stage", version=version, mode=mode, fraction=fraction
        )

    def observe(self, served: ServedBatch) -> str:
        """Feed one served batch; returns the action taken.

        Actions: ``"continue"``, ``"promote"`` (candidate went live),
        ``"reject"`` (staged candidate failed, live unchanged),
        ``"rollback"`` (post-promotion regression, previous live
        reinstated).
        """
        if self.state in ("shadow", "canary"):
            return self._observe_staged(served)
        if self.state == "monitoring":
            return self._observe_monitored(served)
        return "continue"

    # ------------------------------------------------------------------
    def _observe_staged(self, served: ServedBatch) -> str:
        assert self.gate is not None
        candidate_errors = errors_from_predictions(
            self.kind,
            served.candidate_predictions,
            served.candidate_labels,
        )
        incumbent_errors = errors_from_predictions(
            self.kind, served.primary_predictions, served.primary_labels
        )
        decision = self.gate.observe(candidate_errors, incumbent_errors)
        if decision is GateDecision.PROMOTE:
            return self._promote()
        if decision is GateDecision.ROLLBACK:
            return self._reject()
        return "continue"

    def _observe_monitored(self, served: ServedBatch) -> str:
        assert self.monitor is not None
        live_errors = errors_from_predictions(
            self.kind, served.primary_predictions, served.primary_labels
        )
        decision = self.monitor.observe(live_errors)
        if decision is GateDecision.ROLLBACK:
            return self._rollback()
        return "continue"

    # ------------------------------------------------------------------
    def _promote(self) -> str:
        assert self.gate is not None
        version = str(self.endpoint.candidate_version)
        candidate = self.gate.candidate_value()
        incumbent = self.gate.incumbent_value()
        reason = (
            f"gate win: candidate {candidate:.4f} vs incumbent "
            f"{incumbent:.4f} ({self.kind})"
        )
        self.registry.promote(version, reason=reason)
        self.endpoint.promote_candidate()
        self.monitor = BaselineMonitor(
            incumbent, kind=self.kind, config=self.config
        )
        self.gate = None
        self.state = "monitoring"
        self._transition(
            "promote",
            version=version,
            candidate_value=candidate,
            incumbent_value=incumbent,
        )
        return "promote"

    def _reject(self) -> str:
        assert self.gate is not None
        candidate = self.gate.candidate_value()
        incumbent = self.gate.incumbent_value()
        version = str(self.endpoint.detach_candidate())
        reason = (
            f"gate regression: candidate {candidate:.4f} vs incumbent "
            f"{incumbent:.4f} ({self.kind})"
        )
        self.registry.reject(version, reason=reason)
        self.gate = None
        self.state = "idle"
        self._transition(
            "reject",
            version=version,
            candidate_value=candidate,
            incumbent_value=incumbent,
        )
        return "reject"

    def _rollback(self) -> str:
        assert self.monitor is not None
        failed = str(self.endpoint.primary_version)
        live_value = self.monitor.value()
        reason = (
            f"live regression: {live_value:.4f} vs baseline "
            f"{self.monitor.baseline:.4f} ({self.kind})"
        )
        restored = self.registry.rollback(reason=reason)
        self.endpoint.reload_live()
        self.monitor = None
        self.state = "idle"
        self._transition(
            "rollback",
            version=restored.version,
            failed=failed,
            live_value=live_value,
        )
        return "rollback"

    # ------------------------------------------------------------------
    def _transition(self, action: str, **attrs: object) -> None:
        entry: Dict[str, object] = {"action": action, **attrs}
        self.log.append(entry)
        self.telemetry.tracer.point(names.ROLLOUT_PREFIX + action, **attrs)
        self.telemetry.metrics.counter(names.ROLLOUT_PREFIX + action).inc()

    def __repr__(self) -> str:
        return (
            f"RolloutController(state={self.state!r}, "
            f"live={self.registry.live_version}, "
            f"candidate={self.endpoint.candidate_version})"
        )

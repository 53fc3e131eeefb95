"""The live health monitor: streaming SLO windows over telemetry.

:class:`HealthMonitor` is an :class:`~repro.obs.sink.EventSink` that
sits in a telemetry bundle's sink chain (see
:meth:`repro.obs.telemetry.Telemetry.attach_monitor`) and watches the
span/point stream *live*: every event lands in tumbling windows of
the virtual clock, each window close evaluates the declarative alert
rules, and rule breaches drive the pending → firing → resolved
incident lifecycle. Because the stream is ordered by the virtual
clock (a span is emitted when it ends, at ``t + dur``; a point at its
``t``), window assignment is deterministic — two identical-seed runs
produce byte-identical ``health.json`` timelines, and the payload's
digest (same contract as the profile digest) makes that checkable
with a string compare.

Signals derive from events mechanically:

* every event name is an **occurrence signal** (``drift.signal``
  counts per window);
* spans additionally feed ``<name>.dur`` with their virtual duration
  (``platform.observe.dur`` percentiles);
* configured numeric attributes become **value signals**
  (``platform.chunk.error``, ``serving.latency.cost``) — the
  monitored SLO series.

Only signals some rule watches are aggregated, so an attached monitor
costs a dict lookup per unwatched event. The monitor's own
``alert.*`` emissions are skipped on intake, which keeps the feedback
loop open.
"""

from __future__ import annotations

import json
import math
from collections import deque
from pathlib import Path
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.exceptions import ValidationError
from repro.obs import names
from repro.obs.incident import (
    HEALTH_SCHEMA,
    IncidentLog,
    health_digest,
)
from repro.obs.metrics import NULL_METRICS
from repro.obs.rules import AlertRule, RuleState
from repro.obs.sink import EventSink
from repro.obs.trace import NULL_TRACER
from repro.obs.windows import SeriesWindows

#: Event-name prefixes the monitor never consumes (its own output,
#: plus the provenance ledger's growth points).
_SKIP_PREFIXES = ("monitor.", "alert.", "health.", "lineage.")

#: Signals whose incidents carry provenance evidence when a lineage
#: ledger is bound (see :meth:`HealthMonitor._lineage_evidence`).
_LINEAGE_SIGNAL_PREFIXES = ("serving.", "slo.")

#: Default numeric attributes promoted to value signals (read-only).
DEFAULT_VALUE_ATTRS: Mapping[str, str] = MappingProxyType(
    {
        names.PLATFORM_CHUNK: "error",
        names.SERVING_LATENCY: "cost",
        names.SLO_LATENCY: "cost",
    }
)


class MonitorConfig:
    """Tuning knobs for one :class:`HealthMonitor`.

    ``window`` is the tumbling-window width in virtual-cost units —
    the experiments' test-scale runs total ~0.25 cost units, so the
    default of 0.01 yields a few dozen windows per run.
    """

    __slots__ = (
        "window",
        "evidence_limit",
        "snapshot_every",
        "max_snapshots",
        "value_attrs",
    )

    def __init__(
        self,
        window: float = 0.01,
        evidence_limit: int = 8,
        snapshot_every: int = 1,
        max_snapshots: int = 512,
        value_attrs: Optional[Dict[str, str]] = None,
    ) -> None:
        if window <= 0.0:
            raise ValidationError(
                f"monitor window width must be > 0, got {window}"
            )
        if evidence_limit < 1:
            raise ValidationError(
                f"evidence limit must be >= 1, got {evidence_limit}"
            )
        if snapshot_every < 1:
            raise ValidationError(
                f"snapshot_every must be >= 1, got {snapshot_every}"
            )
        if max_snapshots < 0:
            raise ValidationError(
                f"max_snapshots must be >= 0, got {max_snapshots}"
            )
        self.window = float(window)
        self.evidence_limit = evidence_limit
        self.snapshot_every = snapshot_every
        self.max_snapshots = max_snapshots
        self.value_attrs = dict(
            DEFAULT_VALUE_ATTRS if value_attrs is None else value_attrs
        )


def default_rules() -> Tuple[AlertRule, ...]:
    """The stock rule set wired to the platform's emission sites."""
    return (
        AlertRule(
            name="drift-detected",
            signal=names.DRIFT_SIGNAL,
            kind="threshold",
            stat="count",
            op=">=",
            value=1.0,
            severity="critical",
            category="drift",
            description="the drift detector raised a drift signal",
        ),
        AlertRule(
            name="drift-warning",
            signal=names.DRIFT_WARNING,
            kind="threshold",
            stat="count",
            op=">=",
            value=1.0,
            severity="warning",
            category="drift",
            description="the drift detector entered its warning zone",
        ),
        AlertRule(
            name="error-shift",
            signal=names.PLATFORM_CHUNK + ".error",
            kind="mean_shift",
            stat="mean",
            warmup=5,
            drift_k=0.5,
            drift_h=5.0,
            severity="warning",
            category="quality",
            description="CUSUM shift in the per-chunk prequential "
            "error mean",
        ),
        AlertRule(
            name="serving-latency-shift",
            signal=names.SERVING_LATENCY + ".cost",
            kind="mean_shift",
            stat="mean",
            warmup=5,
            drift_k=0.5,
            drift_h=5.0,
            severity="warning",
            category="latency",
            description="CUSUM shift in per-batch serving cost",
        ),
        AlertRule(
            name="rollout-rejected",
            signal=names.ROLLOUT_PREFIX + "reject",
            kind="threshold",
            stat="count",
            op=">=",
            value=1.0,
            severity="warning",
            category="quality-gate",
            description="the quality gate rejected a candidate",
        ),
        AlertRule(
            name="rollout-rolled-back",
            signal=names.ROLLOUT_PREFIX + "rollback",
            kind="threshold",
            stat="count",
            op=">=",
            value=1.0,
            severity="critical",
            category="quality-gate",
            description="a promoted candidate was rolled back",
        ),
        AlertRule(
            name="fault-injected",
            signal=names.RELIABILITY_FAULT,
            kind="threshold",
            stat="count",
            op=">=",
            value=1.0,
            severity="warning",
            category="fault",
            description="a fault fired (injected or real)",
        ),
        AlertRule(
            name="retry-storm",
            signal=names.RELIABILITY_RETRY,
            kind="threshold",
            stat="count",
            op=">=",
            value=3.0,
            window=2,
            severity="warning",
            category="fault",
            description="3+ retries within two windows",
        ),
        AlertRule(
            name="retries-exhausted",
            signal=names.RELIABILITY_RETRIES_EXHAUSTED,
            kind="threshold",
            stat="count",
            op=">=",
            value=1.0,
            severity="critical",
            category="fault",
            description="a retry budget ran out; the fault surfaced",
        ),
        AlertRule(
            name="crash-recovered",
            signal=names.RELIABILITY_RECOVERED,
            kind="threshold",
            stat="count",
            op=">=",
            value=1.0,
            severity="critical",
            category="crash",
            description="the run resumed from a checkpoint after a "
            "crash",
        ),
    )


class HealthMonitor(EventSink):
    """Streaming health monitoring over a live telemetry stream.

    Parameters
    ----------
    rules:
        Alert rules to evaluate; defaults to :func:`default_rules`.
        Rule names must be unique (they are the incident dedup keys).
    config:
        Window width and bookkeeping bounds.
    """

    def __init__(
        self,
        rules: Optional[Sequence[AlertRule]] = None,
        config: Optional[MonitorConfig] = None,
    ) -> None:
        self.config = config if config is not None else MonitorConfig()
        self.rules: Tuple[AlertRule, ...] = tuple(
            rules if rules is not None else default_rules()
        )
        seen = set()
        for rule in self.rules:
            if rule.name in seen:
                raise ValidationError(
                    f"duplicate alert rule name {rule.name!r}"
                )
            seen.add(rule.name)
        self.incidents = IncidentLog(self.rules)
        self._rule_states = [RuleState(rule) for rule in self.rules]
        #: signal -> series, for exactly the signals some rule watches.
        self._series: Dict[str, SeriesWindows] = {}
        #: signal -> recent sanitized events (incident evidence).
        self._recent: Dict[str, deque] = {}
        needs: Dict[str, Tuple[int, bool]] = {}
        for rule in self.rules:
            history, quantiles = needs.get(rule.signal, (1, False))
            needs[rule.signal] = (
                max(history, rule.window),
                quantiles or rule.needs_quantiles,
            )
        for signal, (history, quantiles) in needs.items():
            self._series[signal] = SeriesWindows(
                signal,
                self.config.window,
                history=history,
                track_quantiles=quantiles,
            )
            self._recent[signal] = deque(
                maxlen=self.config.evidence_limit
            )
        self._window_index: Optional[int] = None
        self.windows_closed = 0
        self.events_seen = 0
        self.samples = 0
        self.snapshots: List[Dict[str, object]] = []
        self._closed = False
        self._tracer = NULL_TRACER
        self._metrics = NULL_METRICS
        self._ledger = None

    # ------------------------------------------------------------------
    def bind(self, tracer=None, metrics=None, ledger=None) -> None:
        """Give the monitor instruments to announce transitions on.

        ``ledger`` (a :class:`~repro.obs.lineage.LineageLedger`) lets
        serving incidents carry provenance evidence: the live model
        version and the ledger digest at fire time. Only provided
        instruments are rebound.
        """
        if tracer is not None:
            self._tracer = tracer
        if metrics is not None:
            self._metrics = metrics
        if ledger is not None:
            self._ledger = ledger

    @property
    def watched_signals(self) -> Tuple[str, ...]:
        return tuple(sorted(self._series))

    # ------------------------------------------------------------------
    # EventSink interface — the live intake
    # ------------------------------------------------------------------
    def emit(self, event: Dict[str, object]) -> None:
        if self._closed:
            return
        kind = event.get("kind")
        name = event.get("name")
        if kind == "metrics" or not isinstance(name, str):
            return
        if name.startswith(_SKIP_PREFIXES):
            return
        self.events_seen += 1
        t = float(event.get("t") or 0.0)
        dur = float(event.get("dur") or 0.0)
        # Emission order is monotonic in the virtual clock: a span is
        # emitted when it *ends* (t + dur), a point at its t. Using
        # the emission time for window assignment keeps the stream
        # in-order without any lateness buffering.
        sample_time = t + dur if kind == "span" else t
        self._advance(sample_time)
        self._sample(name, 1.0, sample_time, event)
        if kind == "span":
            self._sample(name + ".dur", dur, sample_time, event)
        attr_key = self.config.value_attrs.get(name)
        if attr_key is not None:
            attrs = event.get("attrs")
            value = (
                attrs.get(attr_key) if isinstance(attrs, dict) else None
            )
            if isinstance(value, (int, float)) and not isinstance(
                value, bool
            ):
                self._sample(
                    f"{name}.{attr_key}", float(value), sample_time,
                    event,
                )

    def close(self) -> None:
        self.flush()

    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Seal the final (partial) window and evaluate it.

        Idempotent; called by :meth:`Telemetry.close` via the sink
        chain, so CLI runs never lose the tail window.
        """
        if self._closed:
            return
        if self._window_index is not None:
            self._close_window()
        self._closed = True
        self._metrics.gauge(names.MONITOR_EVENTS).set(self.events_seen)
        self._metrics.gauge(names.MONITOR_SAMPLES).set(self.samples)
        self._metrics.gauge(names.MONITOR_WINDOWS).set(
            self.windows_closed
        )
        self._metrics.gauge(names.MONITOR_INCIDENTS).set(
            len(self.incidents)
        )

    # ------------------------------------------------------------------
    # Window mechanics
    # ------------------------------------------------------------------
    def _advance(self, sample_time: float) -> None:
        index = int(math.floor(sample_time / self.config.window))
        if self._window_index is None:
            self._window_index = index
            return
        while index > self._window_index:
            self._close_window()

    def _close_window(self) -> None:
        index = self._window_index
        t_end = (index + 1) * self.config.window
        for series in self._series.values():
            series.close_window()
        self.windows_closed += 1
        for state in self._rule_states:
            self._evaluate_rule(state, t_end)
        if (
            self.windows_closed % self.config.snapshot_every == 0
            and len(self.snapshots) < self.config.max_snapshots
        ):
            self.snapshots.append(self._snapshot(index, t_end))
        self._window_index = index + 1

    def _snapshot(self, index: int, t_end: float) -> Dict[str, object]:
        signals = {}
        for name in sorted(self._series):
            series = self._series[name]
            if series.closed:
                signals[name] = series.closed[-1].to_dict()
        return {
            "window": index,
            "t_end": t_end,
            "signals": signals,
            "incidents_open": self.incidents.open_count,
        }

    def _sample(
        self,
        signal: str,
        value: float,
        sample_time: float,
        event: Dict[str, object],
    ) -> None:
        series = self._series.get(signal)
        if series is None:
            return
        series.observe(sample_time, value)
        self.samples += 1
        recent = self._recent.get(signal)
        if recent is not None:
            recent.append(_sanitize_event(event))

    # ------------------------------------------------------------------
    # Rule evaluation → incident lifecycle
    # ------------------------------------------------------------------
    def _evaluate_rule(self, state: RuleState, t_end: float) -> None:
        rule = state.rule
        series = self._series[rule.signal]
        view = series.view(rule.window)
        evaluation = state.evaluate(view, t_end, series.last_sample_t)
        incident = self.incidents.get_open(rule.name)
        if evaluation.breached:
            state.clear_streak = 0
            state.breach_streak += 1
            if incident is None:
                incident = self.incidents.open_incident(
                    rule, t_end, evaluation
                )
                incident.evidence = list(self._recent[rule.signal])
                self._announce(names.ALERT_PENDING, incident, t_end)
            else:
                incident.record_breach(evaluation)
            if (
                incident.state == "pending"
                and state.breach_streak >= rule.for_windows
            ):
                self.incidents.fire(incident, t_end)
                incident.evidence = list(self._recent[rule.signal])
                lineage = self._lineage_evidence(rule)
                if lineage is not None:
                    incident.evidence.append(lineage)
                self._announce(names.ALERT_FIRING, incident, t_end)
                self._metrics.counter(names.ALERTS_FIRED).inc()
        else:
            state.breach_streak = 0
            if incident is not None:
                state.clear_streak += 1
                if state.clear_streak >= rule.clear_windows:
                    fired = incident.fired
                    self.incidents.resolve(incident, t_end)
                    state.clear_streak = 0
                    self._announce(
                        names.ALERT_RESOLVED, incident, t_end
                    )
                    if fired:
                        self._metrics.counter(
                            names.ALERTS_RESOLVED
                        ).inc()

    def _lineage_evidence(self, rule) -> Optional[Dict[str, object]]:
        """Provenance snapshot appended to serving-incident evidence.

        When a ``serving.*``/``slo.*`` rule fires with a ledger bound,
        the incident is recorded as a lineage node implicating the
        live model version, and the evidence gains the version plus
        the ledger digest at fire time — enough to ``blame`` the
        model's training chunks afterwards.
        """
        if self._ledger is None or not rule.signal.startswith(
            _LINEAGE_SIGNAL_PREFIXES
        ):
            return None
        live = self._ledger.live_version()
        node = self._ledger.record_incident(
            rule.name, rule.signal, model=live
        )
        return {
            "kind": "lineage",
            "node": node,
            "live_version": live,
            "lineage_digest": self._ledger.digest(),
        }

    def _announce(self, event_name: str, incident, t_end: float) -> None:
        self._tracer.point(
            event_name,
            rule=incident.rule,
            incident=incident.id,
            severity=incident.severity,
            category=incident.category,
            window_end=t_end,
        )

    # ------------------------------------------------------------------
    # Health payload / export
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, object]:
        """The full, digest-stamped health payload (``health.json``)."""
        payload: Dict[str, object] = {
            "schema": HEALTH_SCHEMA,
            "clock": "virtual",
            "window": self.config.window,
            "windows_closed": self.windows_closed,
            "events": self.events_seen,
            "samples": self.samples,
            "fired": self.incidents.fired_count,
            "resolved": self.incidents.resolved_count,
            "rules": [rule.to_dict() for rule in self.rules],
            "incidents": self.incidents.to_list(),
            "snapshots": list(self.snapshots),
        }
        payload["digest"] = health_digest(payload)
        return payload

    def write_health(self, path: Union[str, Path]) -> Dict[str, object]:
        """Write ``health.json``; returns the payload.

        Serialization is canonical (sorted keys, fixed separators,
        trailing newline), so identical-seed runs produce
        byte-identical files.
        """
        payload = self.health()
        target = Path(path)
        if target.parent != Path("."):
            target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return payload

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def head_state(self) -> Dict[str, object]:
        """The mutable state beside :attr:`snapshots`. A checkpoint
        takes this and the live snapshot list (append-only, so it
        writes only what was appended since the last one)."""
        return {
            "window_index": self._window_index,
            "windows_closed": self.windows_closed,
            "events_seen": self.events_seen,
            "samples": self.samples,
            "closed": self._closed,
            "series": {
                name: series.state_dict()
                for name, series in self._series.items()
            },
            "recent": {
                name: list(ring)
                for name, ring in self._recent.items()
            },
            "rule_states": [
                state.state_dict() for state in self._rule_states
            ],
            "incidents": self.incidents.state_dict(),
        }

    def state_dict(self) -> Dict[str, object]:
        """JSON-safe mutable state (windows, rules, incidents).

        Construction-time inputs (rules, config) are not part of the
        state — restore into a monitor built with the same arguments,
        exactly like every other checkpointable component.
        """
        return {**self.head_state(), "snapshots": list(self.snapshots)}

    def load_state_dict(self, state: Dict[str, object]) -> None:
        index = state.get("window_index")
        self._window_index = None if index is None else int(index)
        self.windows_closed = int(state["windows_closed"])
        self.events_seen = int(state["events_seen"])
        self.samples = int(state["samples"])
        self._closed = bool(state["closed"])
        for name, series_state in state["series"].items():
            series = self._series.get(name)
            if series is None:
                raise ValidationError(
                    f"monitor state watches unknown signal {name!r}; "
                    f"restore with the same rule set"
                )
            series.load_state_dict(series_state)
        for name, events in state["recent"].items():
            ring = self._recent.get(name)
            if ring is not None:
                ring.clear()
                ring.extend(events)
        saved_states = state["rule_states"]
        if len(saved_states) != len(self._rule_states):
            raise ValidationError(
                f"monitor state has {len(saved_states)} rule state(s) "
                f"for {len(self._rule_states)} rule(s); restore with "
                f"the same rule set"
            )
        for rule_state, saved in zip(self._rule_states, saved_states):
            rule_state.load_state_dict(saved)
        self.incidents.load_state_dict(state["incidents"])
        self.snapshots = list(state["snapshots"])

    def __repr__(self) -> str:
        return (
            f"HealthMonitor(rules={len(self.rules)}, "
            f"windows={self.windows_closed}, "
            f"incidents={len(self.incidents)})"
        )


def replay_trace(
    events,
    rules: Optional[Sequence[AlertRule]] = None,
    config: Optional[MonitorConfig] = None,
) -> HealthMonitor:
    """Run a monitor offline over recorded events (a JSONL trace).

    The offline replay of a trace produces the same timeline the live
    monitor would have produced during the run, because the monitor
    only ever sees the serialized event stream either way.
    """
    monitor = HealthMonitor(rules=rules, config=config)
    for event in events:
        monitor.emit(event)
    monitor.flush()
    return monitor


def _sanitize_event(event: Dict[str, object]) -> Dict[str, object]:
    """Evidence snapshot: drop the wall clock, keep the virtual facts."""
    return {
        "seq": event.get("seq"),
        "kind": event.get("kind"),
        "name": event.get("name"),
        "t": event.get("t"),
        "dur": event.get("dur"),
        "attrs": dict(event.get("attrs") or {}),
    }

"""Incident lifecycle and deterministic health timelines.

A breached rule opens an :class:`Incident` (state ``pending``); after
``for_windows`` consecutive breached window closes it **fires**, and
after ``clear_windows`` clean closes it **resolves**. At most one
open incident exists per rule name (the dedup key) — a re-breach
after resolution opens a fresh incident, so the timeline is an
ordered, append-only record of everything the monitor noticed.

Each incident carries evidence: sanitized snapshots of the most
recent events on its signal (wall-clock fields stripped), captured
when the incident opens and refreshed when it fires. That makes a
``health.json`` self-contained — a crash shows up with the
``reliability.fault`` / ``reliability.recovered`` events that caused
it attached.

:func:`health_digest` hashes the canonical JSON form of a health
payload (same contract as the profile digest): two identical-seed
runs must produce byte-identical timelines, so the digest doubles as
a determinism check.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Sequence

from repro.exceptions import ValidationError
from repro.obs.rules import SEVERITIES, AlertRule, Evaluation
from repro.utils.text import _align

#: Schema version stamped into every health payload.
HEALTH_SCHEMA = 1

#: Lifecycle states, in order.
STATES = ("pending", "firing", "resolved")


class Incident:
    """One alert occurrence, from first breach to resolution."""

    __slots__ = (
        "id",
        "rule",
        "signal",
        "category",
        "severity",
        "state",
        "opened_at",
        "fired_at",
        "resolved_at",
        "windows_breached",
        "peak_value",
        "detail",
        "evidence",
    )

    def __init__(self, incident_id: int, rule: AlertRule) -> None:
        self.id = incident_id
        self.rule = rule.name
        self.signal = rule.signal
        self.category = rule.category
        self.severity = rule.severity
        self.state = "pending"
        self.opened_at = 0.0
        self.fired_at: Optional[float] = None
        self.resolved_at: Optional[float] = None
        self.windows_breached = 0
        self.peak_value: Optional[float] = None
        self.detail = ""
        self.evidence: List[Dict[str, object]] = []

    @property
    def open(self) -> bool:
        return self.state != "resolved"

    @property
    def fired(self) -> bool:
        return self.fired_at is not None

    def record_breach(self, evaluation: Evaluation) -> None:
        self.windows_breached += 1
        self.detail = evaluation.detail
        value = evaluation.value
        if value is not None and (
            self.peak_value is None or abs(value) > abs(self.peak_value)
        ):
            self.peak_value = value

    def to_dict(self) -> Dict[str, object]:
        return {
            "id": self.id,
            "rule": self.rule,
            "signal": self.signal,
            "category": self.category,
            "severity": self.severity,
            "state": self.state,
            "opened_at": self.opened_at,
            "fired_at": self.fired_at,
            "resolved_at": self.resolved_at,
            "windows_breached": self.windows_breached,
            "peak_value": self.peak_value,
            "detail": self.detail,
            "evidence": self.evidence,
        }

    def state_dict(self) -> Dict[str, object]:
        return {
            "state": self.state,
            "opened_at": self.opened_at,
            "fired_at": self.fired_at,
            "resolved_at": self.resolved_at,
            "windows_breached": self.windows_breached,
            "peak_value": self.peak_value,
            "detail": self.detail,
            "evidence": list(self.evidence),
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        self.state = str(state["state"])
        self.opened_at = float(state["opened_at"])
        fired = state.get("fired_at")
        self.fired_at = None if fired is None else float(fired)
        resolved = state.get("resolved_at")
        self.resolved_at = None if resolved is None else float(resolved)
        self.windows_breached = int(state["windows_breached"])
        peak = state.get("peak_value")
        self.peak_value = None if peak is None else float(peak)
        self.detail = str(state["detail"])
        self.evidence = list(state["evidence"])

    def __repr__(self) -> str:
        return (
            f"Incident(#{self.id} {self.rule} {self.state} "
            f"opened_at={self.opened_at:g})"
        )


class IncidentLog:
    """Ordered incident record with per-rule dedup.

    The log owns lifecycle transitions; the monitor feeds it one
    breached/clean verdict per rule per window close.
    """

    def __init__(self, rules: Sequence[AlertRule]) -> None:
        self._rules = {rule.name: rule for rule in rules}
        self.incidents: List[Incident] = []
        self._open: Dict[str, Incident] = {}
        self._next_id = 1

    # ------------------------------------------------------------------
    def open_incident(
        self, rule: AlertRule, t: float, evaluation: Evaluation
    ) -> Incident:
        if rule.name in self._open:
            raise ValidationError(
                f"rule {rule.name!r} already has an open incident"
            )
        incident = Incident(self._next_id, rule)
        self._next_id += 1
        incident.opened_at = t
        incident.record_breach(evaluation)
        self.incidents.append(incident)
        self._open[rule.name] = incident
        return incident

    def get_open(self, rule_name: str) -> Optional[Incident]:
        return self._open.get(rule_name)

    def fire(self, incident: Incident, t: float) -> None:
        incident.state = "firing"
        incident.fired_at = t

    def resolve(self, incident: Incident, t: float) -> None:
        incident.state = "resolved"
        incident.resolved_at = t
        self._open.pop(incident.rule, None)

    # ------------------------------------------------------------------
    @property
    def fired_count(self) -> int:
        return sum(1 for i in self.incidents if i.fired)

    @property
    def resolved_count(self) -> int:
        return sum(
            1 for i in self.incidents if i.fired and not i.open
        )

    @property
    def open_count(self) -> int:
        return len(self._open)

    def to_list(self) -> List[Dict[str, object]]:
        return [incident.to_dict() for incident in self.incidents]

    def state_dict(self) -> Dict[str, object]:
        return {
            "next_id": self._next_id,
            "incidents": [
                {
                    "id": incident.id,
                    "rule": incident.rule,
                    "data": incident.state_dict(),
                }
                for incident in self.incidents
            ],
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        self._next_id = int(state["next_id"])
        self.incidents = []
        self._open = {}
        for entry in state["incidents"]:
            rule = self._rules.get(str(entry["rule"]))
            if rule is None:
                raise ValidationError(
                    f"incident state references unknown rule "
                    f"{entry['rule']!r}; restore with the same rule set"
                )
            incident = Incident(int(entry["id"]), rule)
            incident.load_state_dict(entry["data"])
            self.incidents.append(incident)
            if incident.open:
                self._open[incident.rule] = incident

    def __len__(self) -> int:
        return len(self.incidents)


# ----------------------------------------------------------------------
# Digest + rendering
# ----------------------------------------------------------------------
def health_digest(payload: Dict[str, object]) -> str:
    """SHA-256 over the canonical JSON form of a health payload.

    The ``digest`` key itself is excluded; floats serialize via
    :func:`json.dumps` (shortest-repr), so byte-identical payloads —
    and only those — share a digest. Same contract as the profile
    digest.
    """
    body = {k: v for k, v in payload.items() if k != "digest"}
    canonical = json.dumps(
        body, sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _fmt_t(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.4f}"


def format_timeline(payload: Dict[str, object]) -> str:
    """Render a health payload as the ``repro obs health`` report."""
    lines = [
        f"health timeline (schema {payload.get('schema')}, "
        f"window {payload.get('window'):g} cost units, "
        f"{payload.get('windows_closed')} closed)",
        f"digest: {payload.get('digest')}",
        f"events={payload.get('events')} "
        f"samples={payload.get('samples')} "
        f"incidents={len(payload.get('incidents', []))} "
        f"(fired={payload.get('fired')}, "
        f"resolved={payload.get('resolved')})",
    ]
    incidents = payload.get("incidents", [])
    if not incidents:
        lines.append("no incidents — all signals within budget")
        return "\n".join(lines)
    rows = [
        (
            "#", "severity", "state", "rule", "opened", "fired",
            "resolved", "detail",
        )
    ]
    for incident in incidents:
        rows.append(
            (
                str(incident["id"]),
                str(incident["severity"]),
                str(incident["state"]),
                str(incident["rule"]),
                _fmt_t(incident["opened_at"]),
                _fmt_t(incident["fired_at"]),
                _fmt_t(incident["resolved_at"]),
                str(incident["detail"]),
            )
        )
    lines.extend(_align(rows))
    return "\n".join(lines)


def format_alerts(payload: Dict[str, object]) -> str:
    """Render the rule table + firing counts (the second half of
    ``repro obs health``)."""
    rules = payload.get("rules", [])
    incidents = payload.get("incidents", [])
    fired_by_rule: Dict[str, int] = {}
    open_by_rule: Dict[str, str] = {}
    for incident in incidents:
        rule_name = str(incident["rule"])
        if incident["fired_at"] is not None:
            fired_by_rule[rule_name] = (
                fired_by_rule.get(rule_name, 0) + 1
            )
        if incident["state"] != "resolved":
            open_by_rule[rule_name] = str(incident["state"])
    lines = [f"alert rules ({len(rules)}):"]
    rows = [
        ("rule", "severity", "kind", "signal", "condition", "fired",
         "now")
    ]
    ordered = sorted(
        rules,
        key=lambda r: (
            -SEVERITIES.index(str(r["severity"])),
            str(r["name"]),
        ),
    )
    for rule in ordered:
        if rule["kind"] == "absence":
            condition = f"silent > {rule['stale_after']:g}"
        elif rule["kind"] == "mean_shift":
            condition = (
                f"CUSUM({rule['stat']}) > {rule['drift_h']:g}σ"
            )
        else:
            condition = (
                f"{rule['stat']}[{rule['window']}w] {rule['op']} "
                f"{rule['value']:g}"
            )
            if rule["kind"] == "rate_of_change":
                condition = "Δ" + condition
        rows.append(
            (
                str(rule["name"]),
                str(rule["severity"]),
                str(rule["kind"]),
                str(rule["signal"]),
                condition,
                str(fired_by_rule.get(rule["name"], 0)),
                open_by_rule.get(rule["name"], "ok"),
            )
        )
    lines.extend(_align(rows))
    return "\n".join(lines)

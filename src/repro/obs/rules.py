"""Declarative alert rules over windowed telemetry signals.

An :class:`AlertRule` is data, not code: signal name, detector kind,
window stat, comparison, and lifecycle thresholds. Four detector
kinds cover the monitoring needs of a continuous-deployment run:

* ``threshold`` — compare a sliding-window stat against a constant
  (``drift.signal count >= 1``, ``reliability.retry count >= 3``);
* ``rate_of_change`` — compare the stat's delta between consecutive
  window closes (cost blow-ups, error-curve jumps);
* ``absence`` — fire when a signal that has been seen goes silent for
  more than ``stale_after`` cost units (stalled stream, dead loop);
* ``mean_shift`` — a two-sided CUSUM over per-window means in the
  style of Rombouts & Wilms' forecast monitoring: the first
  ``warmup`` non-empty windows establish a reference mean/σ, then
  the standardized cumulative sums ``S+ = max(0, S+ + z - k)`` /
  ``S- = max(0, S- - z - k)`` accumulate and the rule breaches when
  either exceeds ``h``. When the signal returns to the reference
  level the sums decay by ``k`` per window, so the alert resolves
  without manual reset.

Breaches feed the incident lifecycle: ``for_windows`` consecutive
breached closes move an incident pending → firing, ``clear_windows``
clean closes resolve it (see :mod:`repro.obs.incident`).

Everything evaluates on closed windows of the virtual clock, so rule
outcomes are byte-reproducible across identical-seed runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.exceptions import ValidationError
from repro.obs.windows import STATS, SlidingView

#: Detector kinds a rule may use.
KINDS = ("threshold", "rate_of_change", "absence", "mean_shift")

#: Comparison operators for threshold / rate_of_change rules.
OPS = (">", ">=", "<", "<=")

#: Severities, mildest first (render order in timelines).
SEVERITIES = ("info", "warning", "critical")

#: Floor on the reference σ so a constant warmup signal cannot divide
#: the CUSUM standardization by zero.
_MIN_SIGMA = 1e-12


def _compare(value: float, op: str, threshold: float) -> bool:
    if op == ">":
        return value > threshold
    if op == ">=":
        return value >= threshold
    if op == "<":
        return value < threshold
    return value <= threshold


@dataclass(frozen=True)
class AlertRule:
    """One declarative alert rule (see the module docstring)."""

    name: str
    signal: str
    kind: str = "threshold"
    stat: str = "count"
    op: str = ">="
    value: float = 1.0
    #: Sliding view width, in closed windows.
    window: int = 1
    #: Consecutive breached closes before pending becomes firing.
    for_windows: int = 1
    #: Consecutive clean closes before an incident resolves.
    clear_windows: int = 1
    #: ``absence`` only: silence budget in virtual-cost units.
    stale_after: float = 0.0
    #: ``mean_shift`` only: non-empty windows forming the reference.
    warmup: int = 5
    #: ``mean_shift`` only: CUSUM slack per window, in reference σ.
    drift_k: float = 0.5
    #: ``mean_shift`` only: CUSUM decision threshold, in reference σ.
    drift_h: float = 5.0
    severity: str = "warning"
    category: str = "health"
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("alert rule needs a non-empty name")
        if not self.signal:
            raise ValidationError(
                f"rule {self.name!r} needs a signal to watch"
            )
        if self.kind not in KINDS:
            raise ValidationError(
                f"rule {self.name!r}: kind must be one of {KINDS}, "
                f"got {self.kind!r}"
            )
        if self.stat not in STATS:
            raise ValidationError(
                f"rule {self.name!r}: stat must be one of {STATS}, "
                f"got {self.stat!r}"
            )
        if self.op not in OPS:
            raise ValidationError(
                f"rule {self.name!r}: op must be one of {OPS}, "
                f"got {self.op!r}"
            )
        if self.severity not in SEVERITIES:
            raise ValidationError(
                f"rule {self.name!r}: severity must be one of "
                f"{SEVERITIES}, got {self.severity!r}"
            )
        if self.window < 1 or self.for_windows < 1 or self.clear_windows < 1:
            raise ValidationError(
                f"rule {self.name!r}: window/for_windows/clear_windows "
                f"must all be >= 1"
            )
        if self.kind == "absence" and self.stale_after <= 0.0:
            raise ValidationError(
                f"rule {self.name!r}: absence rules need stale_after > 0"
            )
        if self.kind == "mean_shift" and (
            self.warmup < 2 or self.drift_h <= 0.0 or self.drift_k < 0.0
        ):
            raise ValidationError(
                f"rule {self.name!r}: mean_shift needs warmup >= 2, "
                f"drift_h > 0, drift_k >= 0"
            )

    @property
    def needs_quantiles(self) -> bool:
        return self.stat in ("p50", "p95", "p99")

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready declaration (the ``health.json`` rules table)."""
        return {
            "name": self.name,
            "signal": self.signal,
            "kind": self.kind,
            "stat": self.stat,
            "op": self.op,
            "value": self.value,
            "window": self.window,
            "for_windows": self.for_windows,
            "clear_windows": self.clear_windows,
            "stale_after": self.stale_after,
            "warmup": self.warmup,
            "drift_k": self.drift_k,
            "drift_h": self.drift_h,
            "severity": self.severity,
            "category": self.category,
            "description": self.description,
        }



@dataclass
class Evaluation:
    """Outcome of evaluating one rule at one window close."""

    breached: bool
    #: The measured quantity (stat, delta, silence, or CUSUM score).
    value: Optional[float] = None
    detail: str = ""


@dataclass
class RuleState:
    """Mutable evaluation state of one rule (checkpointable)."""

    rule: AlertRule
    breach_streak: int = 0
    clear_streak: int = 0
    #: ``rate_of_change``: the stat at the previous window close.
    prev_stat: Optional[float] = None
    #: ``mean_shift`` reference (Welford accumulators over warmup).
    ref_count: int = 0
    ref_mean: float = 0.0
    ref_m2: float = 0.0
    cusum_pos: float = 0.0
    cusum_neg: float = 0.0
    evaluations: int = field(default=0)

    def evaluate(
        self,
        view: SlidingView,
        t_end: float,
        last_sample_t: Optional[float],
    ) -> Evaluation:
        """Evaluate the rule against a just-closed window's view."""
        self.evaluations += 1
        rule = self.rule
        if rule.kind == "threshold":
            return self._evaluate_threshold(view)
        if rule.kind == "rate_of_change":
            return self._evaluate_rate_of_change(view)
        if rule.kind == "absence":
            return self._evaluate_absence(t_end, last_sample_t)
        return self._evaluate_mean_shift(view)

    # ------------------------------------------------------------------
    def _evaluate_threshold(self, view: SlidingView) -> Evaluation:
        rule = self.rule
        measured = view.stat(rule.stat)
        if measured is None:
            return Evaluation(False, None, "no samples in view")
        breached = _compare(measured, rule.op, rule.value)
        return Evaluation(
            breached,
            measured,
            f"{rule.stat}({rule.signal}) = {measured:g} "
            f"{rule.op} {rule.value:g}",
        )

    def _evaluate_rate_of_change(self, view: SlidingView) -> Evaluation:
        rule = self.rule
        measured = view.stat(rule.stat)
        if measured is None:
            return Evaluation(False, None, "no samples in view")
        previous = self.prev_stat
        self.prev_stat = measured
        if previous is None:
            return Evaluation(False, None, "first observation")
        delta = measured - previous
        breached = _compare(delta, rule.op, rule.value)
        return Evaluation(
            breached,
            delta,
            f"Δ{rule.stat}({rule.signal}) = {delta:+g} "
            f"{rule.op} {rule.value:g}",
        )

    def _evaluate_absence(
        self, t_end: float, last_sample_t: Optional[float]
    ) -> Evaluation:
        rule = self.rule
        if last_sample_t is None:
            return Evaluation(False, None, "signal never seen")
        silence = t_end - last_sample_t
        breached = silence > rule.stale_after
        return Evaluation(
            breached,
            silence,
            f"{rule.signal} silent for {silence:g} of "
            f"{rule.stale_after:g} cost units",
        )

    def _evaluate_mean_shift(self, view: SlidingView) -> Evaluation:
        rule = self.rule
        measured = view.stat(rule.stat)
        if measured is None:
            return Evaluation(False, None, "no samples in view")
        if self.ref_count < rule.warmup:
            self.ref_count += 1
            delta = measured - self.ref_mean
            self.ref_mean += delta / self.ref_count
            self.ref_m2 += delta * (measured - self.ref_mean)
            return Evaluation(
                False,
                None,
                f"warmup {self.ref_count}/{rule.warmup}",
            )
        sigma = max(
            math.sqrt(self.ref_m2 / (self.ref_count - 1)), _MIN_SIGMA
        )
        z = (measured - self.ref_mean) / sigma
        self.cusum_pos = max(0.0, self.cusum_pos + z - rule.drift_k)
        self.cusum_neg = max(0.0, self.cusum_neg - z - rule.drift_k)
        score = max(self.cusum_pos, self.cusum_neg)
        return Evaluation(
            score > rule.drift_h,
            score,
            f"CUSUM({rule.signal}.{rule.stat}) = {score:.3f} "
            f"(h={rule.drift_h:g}, ref={self.ref_mean:.4g}±{sigma:.4g})",
        )

    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        return {
            "breach_streak": self.breach_streak,
            "clear_streak": self.clear_streak,
            "prev_stat": self.prev_stat,
            "ref_count": self.ref_count,
            "ref_mean": self.ref_mean,
            "ref_m2": self.ref_m2,
            "cusum_pos": self.cusum_pos,
            "cusum_neg": self.cusum_neg,
            "evaluations": self.evaluations,
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        self.breach_streak = int(state["breach_streak"])
        self.clear_streak = int(state["clear_streak"])
        prev = state.get("prev_stat")
        self.prev_stat = None if prev is None else float(prev)
        self.ref_count = int(state["ref_count"])
        self.ref_mean = float(state["ref_mean"])
        self.ref_m2 = float(state["ref_m2"])
        self.cusum_pos = float(state["cusum_pos"])
        self.cusum_neg = float(state["cusum_neg"])
        self.evaluations = int(state["evaluations"])

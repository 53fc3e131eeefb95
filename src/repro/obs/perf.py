"""Regression gating over persisted benchmark baselines.

The detector compares a fresh :class:`~repro.obs.baseline.BenchRecord`
against the latest record of the committed trajectory for the same
bench name:

* every metric kind (``cost``/``quality``/``count``) is measured on the
  platform's deterministic virtual clock, so the gate is exact match —
  any drift is a determinism or performance event worth a verdict
  (``regression`` when worse or not finite, ``improvement`` when
  better; both are reported, only regressions gate);
* profile digests (when both sides carry one) detect cost-*shape*
  changes that leave the totals intact; they report as ``changed`` and
  gate only under ``gate_profile``.

``repro perf check`` maps a failing report to exit code 1 (mirroring
``repro lint``), which is what ``make bench-check`` and the CI
perf-smoke job gate on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.obs import names
from repro.obs.baseline import BenchRecord, MetricValue, make_record
from repro.utils.text import _align

#: Verdicts that fail the gate.
FAILING_VERDICTS = ("regression", "missing")


@dataclass(frozen=True)
class MetricCheck:
    """The verdict for one metric (or the profile digest)."""

    metric: str
    kind: str
    verdict: str
    fresh: Optional[float] = None
    baseline: Optional[float] = None
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.verdict in FAILING_VERDICTS


@dataclass
class RegressionReport:
    """Everything ``repro perf check`` reports for one bench name."""

    name: str
    checks: List[MetricCheck] = field(default_factory=list)
    baseline_records: int = 0

    @property
    def regressions(self) -> List[MetricCheck]:
        return [check for check in self.checks if check.failed]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def exit_code(self) -> int:
        return 0 if self.ok else 1


def check_record(
    fresh: BenchRecord,
    history: Sequence[BenchRecord],
    gate_profile: bool = False,
    telemetry=None,
) -> RegressionReport:
    """Gate ``fresh`` against its baseline trajectory.

    ``history`` is the stored trajectory, oldest first (the fresh
    record must NOT already be part of it). An empty history yields an
    all-``new`` passing report — the first recorded run founds the
    baseline rather than failing it. ``gate_profile`` escalates a
    profile-digest change from a warning to a gate failure.
    """
    report = RegressionReport(
        name=fresh.name, baseline_records=len(history)
    )
    if not history:
        for key, value in sorted(fresh.metrics.items()):
            report.checks.append(
                MetricCheck(
                    metric=key,
                    kind=value.kind,
                    verdict="new",
                    fresh=value.value,
                    detail="no baseline trajectory yet",
                )
            )
        _emit(telemetry, report)
        return report

    latest = history[-1]
    for key, value in sorted(fresh.metrics.items()):
        report.checks.append(_check_exact(key, value, latest))
    for key, value in sorted(latest.metrics.items()):
        if key not in fresh.metrics:
            report.checks.append(
                MetricCheck(
                    metric=key,
                    kind=value.kind,
                    verdict="missing",
                    baseline=value.value,
                    detail="metric present in the baseline but not in "
                    "the fresh run",
                )
            )
    report.checks.append(_check_digest(fresh, latest, gate_profile))
    _emit(telemetry, report)
    return report


def _check_exact(
    key: str, value: MetricValue, latest: BenchRecord
) -> MetricCheck:
    base = latest.metrics.get(key)
    if base is None:
        return MetricCheck(
            metric=key,
            kind=value.kind,
            verdict="new",
            fresh=value.value,
            detail="metric not present in the baseline record",
        )
    if value.value == base.value:
        return MetricCheck(
            metric=key,
            kind=value.kind,
            verdict="ok",
            fresh=value.value,
            baseline=base.value,
        )
    # A deterministic event count that moved at all means the run did
    # different work, and a value that is not finite cannot be ranked
    # (nan compares false with everything): both always fail the gate.
    worse = (
        value.kind == "count"
        or not math.isfinite(value.value)
        or value.value > base.value
    )
    delta = value.value - base.value
    rel = delta / base.value if base.value else float("inf")
    return MetricCheck(
        metric=key,
        kind=value.kind,
        verdict="regression" if worse else "improvement",
        fresh=value.value,
        baseline=base.value,
        detail=f"exact-match gate: {delta:+.6g} ({rel:+.2%})",
    )


def _check_digest(
    fresh: BenchRecord, latest: BenchRecord, gate_profile: bool
) -> MetricCheck:
    if fresh.profile_digest is None or latest.profile_digest is None:
        return MetricCheck(
            metric="profile_digest",
            kind="cost",
            verdict="ok",
            detail="no digest on one side; shape check skipped",
        )
    if fresh.profile_digest == latest.profile_digest:
        return MetricCheck(
            metric="profile_digest", kind="cost", verdict="ok"
        )
    return MetricCheck(
        metric="profile_digest",
        kind="cost",
        verdict="regression" if gate_profile else "changed",
        detail=(
            f"cost shape changed: {latest.profile_digest[:12]}… → "
            f"{fresh.profile_digest[:12]}…"
        ),
    )


def _emit(telemetry, report: RegressionReport) -> None:
    if telemetry is None:
        return
    telemetry.tracer.point(
        names.PERF_CHECK,
        bench=report.name,
        checks=len(report.checks),
        regressions=len(report.regressions),
    )
    if report.regressions:
        telemetry.metrics.counter(names.PERF_REGRESSIONS).inc(
            len(report.regressions)
        )


# ----------------------------------------------------------------------
# Workloads: the CLI's record/check runner
# ----------------------------------------------------------------------
def workload_name(scenario_name: str, approach: str) -> str:
    """Canonical trajectory name for a CLI perf workload."""
    return f"run_{scenario_name.replace('-', '_')}_{approach}"


def run_workload(scenario, approach: str):
    """Run one traced deployment and condense it into a record.

    Returns ``(record, profile_root)``. The run is instrumented with
    an in-memory telemetry bundle; the record carries the virtual-cost
    headline metrics, the per-counter event counts (all exact-gated)
    and the profile digest of the folded span tree, so ``repro perf
    check`` can gate both the totals and the cost shape.
    """
    from repro.experiments.common import run_approach
    from repro.obs.profile import build_profile, profile_digest
    from repro.obs.telemetry import Telemetry

    telemetry = Telemetry()
    result = run_approach(scenario, approach, telemetry)
    telemetry.flush_metrics()
    root = build_profile(telemetry.events)
    telemetry.tracer.point(names.PROFILE_BUILT, spans=root.count)
    telemetry.metrics.gauge(names.PROFILE_NODES).set(
        sum(1 for _ in root.walk()) - 1
    )
    metrics: Dict[str, MetricValue] = {
        "total_cost": MetricValue(result.total_cost, "cost"),
        "final_error": MetricValue(result.final_error, "quality"),
        "average_error": MetricValue(result.average_error, "quality"),
        "chunks": MetricValue(float(result.chunks_processed), "count"),
    }
    for counter, count in sorted(result.counters.items()):
        metrics[f"n_{counter}"] = MetricValue(float(count), "count")

    record = make_record(
        name=workload_name(scenario.name, approach),
        metrics=metrics,
        seed=scenario.seed,
        params={
            "scenario": scenario.name,
            "approach": approach,
            "num_chunks": scenario.num_chunks,
            "online_batch_rows": scenario.online_batch_rows,
        },
        profile_digest=profile_digest(root),
    )
    return record, root


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def format_report(report: RegressionReport) -> str:
    """Aligned text report for one gated bench name."""
    lines = [
        f"bench: {report.name} "
        f"(baseline records: {report.baseline_records})"
    ]
    rows = [("metric", "kind", "baseline", "fresh", "verdict", "detail")]
    for check in report.checks:
        rows.append(
            (
                check.metric,
                check.kind,
                _num(check.baseline),
                _num(check.fresh),
                check.verdict,
                check.detail,
            )
        )
    lines.extend(_align(rows))
    if report.ok:
        lines.append("verdict: OK — no regressions")
    else:
        failed = ", ".join(c.metric for c in report.regressions)
        lines.append(f"verdict: REGRESSION in {failed}")
    return "\n".join(lines)


def format_trajectory(name: str, records: Sequence[BenchRecord]) -> str:
    """One line per record: when, where, and the headline numbers."""
    lines = [f"trajectory: {name} ({len(records)} record(s))"]
    rows = [("#", "git", "seed", "metrics")]
    for index, record in enumerate(records):
        headline = ", ".join(
            f"{key}={value.value:g}"
            for key, value in sorted(record.metrics.items())
        )
        rows.append(
            (
                str(index),
                (record.git_sha or "-")[:10],
                str(record.seed if record.seed is not None else "-"),
                headline or "-",
            )
        )
    lines.extend(_align(rows))
    return "\n".join(lines)


def _num(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.6g}"

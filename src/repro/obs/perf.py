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
  changes that leave the totals intact; they report as ``changed``
  and never gate.

The benchmark suite's ``bench_record`` fixture (``benchmarks/
conftest.py``) is the one caller: under ``REPRO_BENCH_CHECK`` it fails
the bench on a failing report, which is what ``make bench-check`` and
the CI perf smoke gate on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.obs.baseline import BenchRecord, MetricValue
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
    """Every verdict the gate reports for one bench name."""

    name: str
    checks: List[MetricCheck] = field(default_factory=list)
    baseline_records: int = 0

    @property
    def regressions(self) -> List[MetricCheck]:
        return [check for check in self.checks if check.failed]

    @property
    def ok(self) -> bool:
        return not self.regressions


def check_record(
    fresh: BenchRecord, history: Sequence[BenchRecord]
) -> RegressionReport:
    """Gate ``fresh`` against its baseline trajectory.

    ``history`` is the stored trajectory, oldest first (the fresh
    record must NOT already be part of it). An empty history yields an
    all-``new`` passing report — the first recorded run founds the
    baseline rather than failing it.
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
    report.checks.append(_check_digest(fresh, latest))
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
    # nan to nan is the same number too: a record checked against
    # itself passes whatever it holds.
    if value.value == base.value or (
        math.isnan(value.value) and math.isnan(base.value)
    ):
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


def _check_digest(fresh: BenchRecord, latest: BenchRecord) -> MetricCheck:
    if fresh.profile_digest is None or latest.profile_digest is None:
        return MetricCheck(
            metric="profile_digest",
            kind="cost",
            verdict="ok",
            detail="no digest on one side; shape check skipped",
        )
    if fresh.profile_digest == latest.profile_digest:
        return MetricCheck(
            metric="profile_digest",
            kind="cost",
            verdict="ok",
            detail=f"same cost shape: {fresh.profile_digest[:12]}…",
        )
    return MetricCheck(
        metric="profile_digest",
        kind="cost",
        verdict="changed",
        detail=(
            f"cost shape changed: {latest.profile_digest[:12]}… → "
            f"{fresh.profile_digest[:12]}…"
        ),
    )


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


def _num(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.6g}"

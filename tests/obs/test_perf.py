"""Unit tests for the regression detector."""

import pytest

from repro.obs.baseline import BenchRecord, MetricValue
from repro.obs.perf import (
    FAILING_VERDICTS,
    RegressionReport,
    check_record,
    format_report,
)


def record(digest=None, **overrides):
    metrics = {
        "total_cost": MetricValue(10.0, "cost"),
        "final_error": MetricValue(0.25, "quality"),
        "chunks": MetricValue(40.0, "count"),
    }
    metrics.update(overrides)
    return BenchRecord(
        name="bench_a",
        metrics=metrics,
        seed=7,
        profile_digest=digest,
    )


def verdict_of(report, metric):
    (check,) = [c for c in report.checks if c.metric == metric]
    return check.verdict


class TestCheckRecord:
    def test_empty_history_founds_baseline(self):
        report = check_record(record(), [])
        assert report.ok
        assert {c.verdict for c in report.checks} == {"new"}

    def test_self_comparison_is_all_ok(self):
        report = check_record(
            record(digest="abc"), [record(digest="abc")]
        )
        assert report.ok
        assert {c.verdict for c in report.checks} == {"ok"}

    def test_cost_inflation_is_a_regression(self):
        fresh = record(total_cost=MetricValue(20.0, "cost"))
        report = check_record(fresh, [record()])
        assert not report.ok
        assert verdict_of(report, "total_cost") == "regression"

    def test_cost_drop_is_an_improvement_and_passes(self):
        fresh = record(total_cost=MetricValue(5.0, "cost"))
        report = check_record(fresh, [record()])
        assert report.ok
        assert verdict_of(report, "total_cost") == "improvement"

    def test_any_count_drift_is_a_regression(self):
        fewer = record(chunks=MetricValue(39.0, "count"))
        report = check_record(fewer, [record()])
        assert verdict_of(report, "chunks") == "regression"

    @pytest.mark.parametrize("bad", [float("nan"), float("-inf")])
    @pytest.mark.parametrize(
        ("metric", "kind"),
        [("total_cost", "cost"), ("final_error", "quality")],
    )
    def test_non_finite_value_is_a_regression(self, metric, kind, bad):
        # nan compares false with everything and -inf reads as the best
        # run ever: neither may pass as an improvement.
        fresh = record(**{metric: MetricValue(bad, kind)})
        report = check_record(fresh, [record()])
        assert verdict_of(report, metric) == "regression"
        assert not report.ok

    def test_metric_missing_from_fresh_run_fails(self):
        fresh = record()
        del fresh.metrics["final_error"]
        report = check_record(fresh, [record()])
        assert verdict_of(report, "final_error") == "missing"
        assert not report.ok

    def test_metric_new_in_fresh_run_passes(self):
        fresh = record(extra=MetricValue(1.0, "cost"))
        report = check_record(fresh, [record()])
        assert verdict_of(report, "extra") == "new"
        assert report.ok

    def test_digest_change_warns_by_default(self):
        report = check_record(
            record(digest="bbb"), [record(digest="aaa")]
        )
        assert verdict_of(report, "profile_digest") == "changed"
        assert report.ok

    def test_digest_absent_on_one_side_is_skipped(self):
        report = check_record(record(), [record(digest="aaa")])
        assert verdict_of(report, "profile_digest") == "ok"


class TestRendering:
    def test_format_report_states_the_verdict(self):
        passing = check_record(record(), [record()])
        failing = check_record(
            record(total_cost=MetricValue(20.0, "cost")), [record()]
        )
        assert "OK — no regressions" in format_report(passing)
        assert "REGRESSION in total_cost" in format_report(failing)

    def test_failing_verdicts_vocabulary(self):
        assert set(FAILING_VERDICTS) == {"regression", "missing"}
        assert RegressionReport(name="x").ok

"""Unit tests for the regression detector and its CLI workloads."""

import pytest

from repro.experiments.common import url_scenario
from repro.obs.baseline import BenchRecord, MetricValue
from repro.obs.perf import (
    FAILING_VERDICTS,
    RegressionReport,
    check_record,
    format_report,
    format_trajectory,
    run_workload,
    workload_name,
)
from repro.obs.telemetry import Telemetry


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
        assert report.exit_code() == 0
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
        assert report.exit_code() == 1
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
        assert report.exit_code() == 1

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

    def test_digest_change_gates_with_policy(self):
        report = check_record(
            record(digest="bbb"),
            [record(digest="aaa")],
            gate_profile=True,
        )
        assert verdict_of(report, "profile_digest") == "regression"
        assert not report.ok

    def test_digest_absent_on_one_side_is_skipped(self):
        report = check_record(record(), [record(digest="aaa")])
        assert verdict_of(report, "profile_digest") == "ok"

    def test_emits_telemetry_on_regression(self):
        telemetry = Telemetry()
        fresh = record(total_cost=MetricValue(20.0, "cost"))
        check_record(fresh, [record()], telemetry=telemetry)
        telemetry.flush_metrics()
        names = [event["name"] for event in telemetry.events]
        assert "perf.check" in names
        snapshot = telemetry.events[-1]["attrs"]
        assert snapshot["counters"]["perf.regressions"] == 1.0


class TestRendering:
    def test_format_report_states_the_verdict(self):
        passing = check_record(record(), [record()])
        failing = check_record(
            record(total_cost=MetricValue(20.0, "cost")), [record()]
        )
        assert "OK — no regressions" in format_report(passing)
        assert "REGRESSION in total_cost" in format_report(failing)

    def test_format_trajectory_lists_each_record(self):
        text = format_trajectory("bench_a", [record(), record()])
        assert "2 record(s)" in text
        assert "total_cost=10" in text

    def test_failing_verdicts_vocabulary(self):
        assert set(FAILING_VERDICTS) == {"regression", "missing"}
        assert RegressionReport(name="x").ok


class TestRunWorkload:
    def test_identical_seeds_gate_clean(self):
        scenario = url_scenario("test")
        baseline, _ = run_workload(scenario, "continuous")
        fresh, root = run_workload(scenario, "continuous")
        assert baseline.name == workload_name(
            scenario.name, "continuous"
        )
        assert fresh.profile_digest == baseline.profile_digest
        assert root.cum_cost > 0.0
        report = check_record(fresh, [baseline])
        assert report.ok, format_report(report)
        assert all(c.verdict == "ok" for c in report.checks)

    def test_inflated_cost_is_flagged(self):
        scenario = url_scenario("test")
        baseline, _ = run_workload(scenario, "continuous")
        fresh, _ = run_workload(scenario, "continuous")
        fresh.metrics["total_cost"] = MetricValue(
            baseline.metrics["total_cost"].value * 2.0, "cost"
        )
        report = check_record(fresh, [baseline])
        assert not report.ok
        assert verdict_of(report, "total_cost") == "regression"

    def test_record_carries_reproduction_knobs(self):
        scenario = url_scenario("test")
        built, _ = run_workload(scenario, "online")
        assert built.seed == scenario.seed
        assert built.params["num_chunks"] == scenario.num_chunks
        assert built.params["approach"] == "online"

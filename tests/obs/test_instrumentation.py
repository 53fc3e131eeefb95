"""Integration tests: telemetry emitted by real deployment runs.

The acceptance bar for the observability layer: one traced continuous
run produces events from all five instrumented layers (execution
engine, platform, data manager / cache, sampler, scheduler — plus
drift detectors on the drift-aware deployment), and enabling telemetry
changes nothing about a run's numerical results.
"""

from collections import Counter

import numpy as np
import pytest

from repro.core.config import ContinuousConfig, ScheduleConfig
from repro.core.deployment import (
    ContinuousDeployment,
    FullRetrainingDeployment,
    OnlineDeployment,
)
from repro.core.config import PeriodicalConfig
from repro.core.platform import TrainingRule
from repro.data.sampling import WindowBasedSampler
from repro.datasets.url import URLStreamGenerator, make_url_pipeline
from repro.driftdetect import DriftState, DriftTrigger
from repro.experiments.common import (
    APPROACHES,
    make_deployment,
    url_scenario,
)
from repro.experiments.exp5_serving import run_serving_experiment
from repro.experiments.exp7_traffic import run_traffic_experiment
from repro.fleet import FleetOrchestrator, make_fleet
from repro.ml.models.svm import LinearSVM
from repro.ml.optim import make_optimizer
from repro.ml.regularizers import L2
from repro.obs import NULL_TELEMETRY, Telemetry, summarize_events
from repro.reliability import FaultPlan, FaultSpec, RetryPolicy, sites

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.exceptions.ConvergenceWarning"
)

HASH_DIM = 64


def make_generator(seed=3):
    return URLStreamGenerator(
        num_chunks=12,
        rows_per_chunk=20,
        base_features=50,
        new_features_per_chunk=1,
        seed=seed,
    )


def make_parts():
    pipeline = make_url_pipeline(hash_features=HASH_DIM)
    model = LinearSVM(HASH_DIM, regularizer=L2(1e-3))
    optimizer = make_optimizer("adam", learning_rate=0.05)
    return pipeline, model, optimizer


def tight_config():
    """Small materialization budget so evictions and re-materializations
    actually happen within a dozen chunks."""
    return ContinuousConfig(
        sample_size_chunks=4,
        schedule=ScheduleConfig(kind="static", interval_chunks=3),
        sampler="uniform",
        max_materialized_chunks=2,
        online_batch_rows=5,
    )


def run_continuous(telemetry=None, seed=3):
    pipeline, model, optimizer = make_parts()
    deployment = ContinuousDeployment(
        pipeline,
        model,
        optimizer,
        config=tight_config(),
        metric="classification",
        seed=seed,
        telemetry=telemetry,
    )
    generator = make_generator(seed)
    deployment.initial_fit(
        generator.initial_data(100), max_iterations=50, seed=seed
    )
    return deployment.run(generator.stream())


class TestFiveLayerCoverage:
    @pytest.fixture(scope="class")
    def traced(self):
        telemetry = Telemetry()
        result = run_continuous(telemetry)
        return result, telemetry

    def test_result_carries_telemetry(self, traced):
        result, telemetry = traced
        assert result.telemetry is telemetry

    def test_engine_layer_spans(self, traced):
        __, telemetry = traced
        names = {e["name"] for e in telemetry.events if e["kind"] == "span"}
        assert "engine.online_pass" in names
        assert "engine.transform_only" in names
        assert "engine.train_step" in names
        assert "engine.predict" in names

    def test_engine_spans_carry_values_scanned(self, traced):
        __, telemetry = traced
        spans = [
            e
            for e in telemetry.events
            if e["kind"] == "span" and e["name"].startswith("engine.")
        ]
        assert spans
        assert all(e["attrs"].get("values", 0) > 0 for e in spans)

    def test_platform_layer_spans(self, traced):
        __, telemetry = traced
        spans = [e for e in telemetry.events if e["kind"] == "span"]
        observe = [e for e in spans if e["name"] == "platform.observe"]
        proactive = [
            e for e in spans if e["name"] == "platform.proactive_training"
        ]
        assert len(observe) == 12  # one per deployment chunk
        assert len(proactive) == 4  # every 3rd chunk of 12
        assert all("chunk" in e["attrs"] for e in observe)
        assert all(e["attrs"]["rows"] > 0 for e in proactive)

    def test_scheduler_layer_decisions(self, traced):
        __, telemetry = traced
        decisions = [
            e
            for e in telemetry.events
            if e["kind"] == "point" and e["name"] == "scheduler.decision"
        ]
        assert len(decisions) == 12
        fired = sum(bool(e["attrs"]["fired"]) for e in decisions)
        snapshot = telemetry.metrics.snapshot()
        assert snapshot["counters"]["scheduler.fired"] == fired == 4
        assert snapshot["counters"]["scheduler.skipped"] == 8

    def test_cache_layer_counters(self, traced):
        __, telemetry = traced
        counters = telemetry.metrics.snapshot()["counters"]
        # Budget of 2 materialized chunks over 12+1 stored chunks:
        # sampling must miss and re-materialize, storage must evict.
        assert counters["cache.hits"] > 0
        assert counters["cache.misses"] > 0
        assert counters["cache.rematerializations"] == counters[
            "cache.misses"
        ]
        assert counters["cache.evictions"] > 0

    def test_cache_layer_gauges_respect_budget(self, traced):
        __, telemetry = traced
        gauges = telemetry.metrics.snapshot()["gauges"]
        assert gauges["cache.materialized_chunks"] <= 2
        assert gauges["cache.materialized_bytes"] > 0

    def test_sampler_layer_coverage_histogram(self, traced):
        __, telemetry = traced
        histogram = telemetry.metrics.histogram("sampler.chunk_age")
        assert histogram.count > 0
        assert histogram.min >= 0
        points = [
            e
            for e in telemetry.events
            if e["kind"] == "point" and e["name"] == "cache.sample"
        ]
        assert len(points) == 4
        assert all(
            e["attrs"]["sampled"]
            == e["attrs"]["hits"] + e["attrs"]["misses"]
            for e in points
        )

    def test_span_timestamps_on_virtual_clock(self, traced):
        result, telemetry = traced
        spans = [e for e in telemetry.events if e["kind"] == "span"]
        assert all(e["dur"] >= 0.0 for e in spans)
        assert max(e["t"] + e["dur"] for e in spans) <= (
            result.total_cost + 1e-9
        )

    def test_summary_renders(self, traced):
        __, telemetry = traced
        summary = summarize_events(
            telemetry.events, telemetry.metrics.snapshot()
        )
        assert summary.events == len(telemetry.events)
        names = {span.name for span in summary.spans}
        assert "platform.proactive_training" in names


class TestBaselineDeploymentTelemetry:
    def test_periodical_full_retrain_span(self):
        pipeline, model, optimizer = make_parts()
        telemetry = Telemetry()
        deployment = FullRetrainingDeployment(
            pipeline,
            model,
            optimizer,
            config=PeriodicalConfig(
                retrain_every_chunks=5, max_epoch_iterations=10
            ),
            metric="classification",
            seed=3,
            telemetry=telemetry,
        )
        generator = make_generator()
        deployment.initial_fit(
            generator.initial_data(100), max_iterations=20, seed=3
        )
        deployment.run(generator.stream())
        retrains = [
            e
            for e in telemetry.events
            if e["kind"] == "span" and e["name"] == "platform.full_retrain"
        ]
        assert len(retrains) == 2  # chunks 5 and 10 of 12
        assert all("iterations" in e["attrs"] for e in retrains)

    def test_online_engine_spans(self):
        pipeline, model, optimizer = make_parts()
        telemetry = Telemetry()
        deployment = OnlineDeployment(
            pipeline,
            model,
            optimizer,
            metric="classification",
            telemetry=telemetry,
        )
        generator = make_generator()
        deployment.initial_fit(
            generator.initial_data(100), max_iterations=20, seed=3
        )
        result = deployment.run(generator.stream())
        assert result.telemetry is telemetry
        names = {e["name"] for e in telemetry.events if e["kind"] == "span"}
        assert "engine.train_step" in names


class TestDriftTelemetry:
    def test_drift_events_emitted(self):
        class FiringDetector:
            """Emits WARNING then DRIFT on successive chunks."""

            def __init__(self):
                self.calls = 0

            def update_many(self, errors):
                self.calls += 1
                if self.calls == 2:
                    return DriftState.WARNING
                if self.calls == 3:
                    return DriftState.DRIFT
                return DriftState.STABLE

        pipeline, model, optimizer = make_parts()
        telemetry = Telemetry()
        trigger = DriftTrigger(
            FiringDetector(), delay_chunks=1, telemetry=telemetry
        )
        deployment = ContinuousDeployment(
            pipeline,
            model,
            optimizer,
            config=tight_config(),
            metric="classification",
            seed=3,
            telemetry=telemetry,
            rules=[TrainingRule(trigger, WindowBasedSampler(5))],
        )
        generator = make_generator()
        deployment.initial_fit(
            generator.initial_data(100), max_iterations=20, seed=3
        )
        deployment.run(generator.stream())
        points = {
            e["name"]
            for e in telemetry.events
            if e["kind"] == "point"
        }
        assert "drift.warning" in points
        assert "drift.signal" in points
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["drift.signals"] == 1
        assert counters["drift.warnings"] == 1


def test_no_event_is_emitted_per_row():
    """The chunk and the proactive training are the units telemetry
    reports on: however many rows a chunk holds (the online update is
    per row here), no event name occurs more often than once per chunk
    plus once per training (plus the initial fit)."""
    scenario = url_scenario("test")
    telemetry = Telemetry(ring_capacity=1 << 16)
    deployment = make_deployment(scenario, "continuous", telemetry)
    result = scenario.fit(deployment).run(scenario.make_stream())
    assert scenario.online_batch_rows == 1
    bound = (
        len(result.error_history)
        + result.counters["proactive_trainings"]
        + 1
    )
    counts = Counter(event["name"] for event in telemetry.events)
    assert counts["engine.train_step"] > 0
    assert {n: c for n, c in counts.items() if c > bound} == {}, bound


class TestTelemetryDoesNotPerturbRuns:
    def test_identical_histories_with_and_without_telemetry(self):
        baseline = run_continuous(telemetry=None)
        traced = run_continuous(telemetry=Telemetry())
        assert baseline.telemetry is None
        np.testing.assert_array_equal(
            baseline.error_history, traced.error_history
        )
        np.testing.assert_array_equal(
            baseline.cost_history, traced.cost_history
        )
        assert baseline.counters == traced.counters


# ----------------------------------------------------------------------
# Disabled telemetry takes the same emit path as enabled telemetry:
# no site asks `enabled`, the null tracer and null registry swallow
# what they are handed. One more input to the "does not perturb" check
# above: every instrumented subsystem, not only the continuous run.
# ----------------------------------------------------------------------
def _run_approach(approach):
    def run(telemetry):
        scenario = url_scenario("test")
        deployment = make_deployment(scenario, approach, telemetry)
        result = scenario.fit(deployment).run(scenario.make_stream())
        return (
            list(result.error_history),
            list(result.cost_history),
            result.counters,
        )

    return run


def _run_fleet(telemetry):
    spec = make_fleet(4, seed=5, policy="fair_share", chunks=6, rows=8)
    result = FleetOrchestrator(spec, telemetry=telemetry).run()
    return result.digest, result.schedule_log, result.per_tenant_error


def _run_serving(telemetry):
    """Endpoint + rollout controller + registry (exp5's three policies)."""
    points = run_serving_experiment(
        url_scenario("test"), telemetry=telemetry
    )
    return {
        policy: (point.error_history, point.transitions)
        for policy, point in points.items()
    }


def _run_traffic(telemetry):
    result = run_traffic_experiment(
        url_scenario("test"), telemetry=telemetry, verify_identity=False
    )
    return (
        {name: o.result.digest() for name, o in result.phases.items()},
        result.training_chunks,
        result.training_cost,
    )


def _run_faulty(telemetry):
    """Transient stream and storage faults, masked by retries."""
    scenario = url_scenario("test").with_continuous(
        max_materialized_chunks=2
    )
    deployment = make_deployment(
        scenario,
        "continuous",
        telemetry,
        fault_plan=FaultPlan.of(
            FaultSpec(sites.STREAM_READ, 3, "io_error"),
            FaultSpec(sites.STORAGE_READ, 2, "io_error"),
        ),
        retry=RetryPolicy(seed=scenario.seed),
    )
    result = scenario.fit(deployment).run(scenario.make_stream())
    retries = deployment.reliability.retrier.retries
    assert retries == 2
    return list(result.error_history), list(result.cost_history), retries


SUBSYSTEMS = {
    **{approach: _run_approach(approach) for approach in APPROACHES},
    "fleet": _run_fleet,
    "serving": _run_serving,
    "traffic": _run_traffic,
    "faults+retries": _run_faulty,
}


@pytest.mark.parametrize("subsystem", sorted(SUBSYSTEMS))
def test_null_telemetry_takes_the_emit_path_and_stays_empty(subsystem):
    run = SUBSYSTEMS[subsystem]
    traced_telemetry = Telemetry()
    assert run(None) == run(traced_telemetry)
    assert traced_telemetry.events  # the sites are there and emit
    assert NULL_TELEMETRY.events == []
    assert NULL_TELEMETRY.state_dict() == {}
    snapshot = NULL_TELEMETRY.metrics.snapshot()
    assert not any(snapshot.values())

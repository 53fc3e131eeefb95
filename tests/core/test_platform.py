"""Unit tests for the assembled continuous-deployment platform."""

import numpy as np
import pytest

from repro.core.config import ContinuousConfig, ScheduleConfig
from repro.core.platform import (
    ContinuousDeploymentPlatform,
    TrainingRule,
    build_scheduler,
)
from repro.core.scheduler import (
    DynamicScheduler,
    Scheduler,
    StaticScheduler,
)
from repro.data.table import Table
from repro.ml.models import LinearRegression
from repro.ml.optim import Adam
from repro.obs import Telemetry, names
from repro.obs.monitor import MonitorConfig, default_rules
from repro.pipeline.components.assembler import FeatureAssembler
from repro.pipeline.components.scaler import StandardScaler
from repro.pipeline.pipeline import Pipeline
from repro.reliability import CheckpointConfig

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.exceptions.ConvergenceWarning"
)


def make_platform(config=None, seed=0, **kwargs):
    pipeline = Pipeline(
        [
            StandardScaler(["x"], name="scaler"),
            FeatureAssembler(["x"], "y", name="assembler"),
        ]
    )
    model = LinearRegression(num_features=1)
    return ContinuousDeploymentPlatform(
        pipeline=pipeline,
        model=model,
        optimizer=Adam(0.05),
        config=config,
        seed=seed,
        **kwargs,
    )


def chunk(rng, rows=6):
    x = rng.standard_normal(rows)
    return Table({"x": x, "y": 2.0 * x})


class TestBuildScheduler:
    def test_static(self):
        scheduler = build_scheduler(ScheduleConfig(kind="static"))
        assert isinstance(scheduler, StaticScheduler)

    def test_dynamic(self):
        scheduler = build_scheduler(
            ScheduleConfig(kind="dynamic", slack=3.0)
        )
        assert isinstance(scheduler, DynamicScheduler)
        assert scheduler.slack == 3.0

    def test_none(self):
        assert build_scheduler(ScheduleConfig(kind="none")) is None


class TestObserve:
    def test_proactive_fires_on_static_interval(self, rng):
        config = ContinuousConfig(
            sample_size_chunks=2,
            schedule=ScheduleConfig(kind="static", interval_chunks=3),
        )
        platform = make_platform(config)
        outcomes = [platform.observe(chunk(rng)) for __ in range(6)]
        fired = [o is not None for o in outcomes]
        assert fired == [False, False, True, False, False, True]
        assert len(platform.proactive_outcomes) == 2

    def test_no_schedule_and_no_rule_never_trains(self, rng):
        telemetry = Telemetry()
        platform = make_platform(
            ContinuousConfig(schedule=ScheduleConfig(kind="none")),
            telemetry=telemetry,
        )
        for __ in range(6):
            table = chunk(rng)
            platform.predict(table)
            assert platform.observe(table) is None
        assert platform.rules == []
        assert platform.proactive_outcomes == []
        assert not [
            e
            for e in telemetry.events
            if e["name"] == names.SCHEDULER_DECISION
        ]

    def test_a_count_runs_the_rule_that_many_times(self, rng):
        class Twice(Scheduler):
            def should_train(self, chunk_index, now):
                return 2 if chunk_index == 1 else 0

        telemetry = Telemetry()
        platform = make_platform(
            ContinuousConfig(
                sample_size_chunks=2, schedule=ScheduleConfig(kind="none")
            ),
            telemetry=telemetry,
            rules=[TrainingRule(Twice(), repeats=3)],
        )
        outcomes = [platform.observe(chunk(rng)) for __ in range(3)]
        assert [o is not None for o in outcomes] == [False, True, False]
        assert len(platform.proactive_outcomes) == 6
        fired = [
            e["attrs"]["fired"]
            for e in telemetry.events
            if e["name"] == names.SCHEDULER_DECISION
        ]
        # The decision event says whether, not how many times.
        assert fired == [False, True, False]
        assert all(isinstance(f, bool) for f in fired)

    def test_online_update_applied(self, rng):
        platform = make_platform(
            ContinuousConfig(
                schedule=ScheduleConfig(interval_chunks=100)
            )
        )
        platform.observe(chunk(rng))
        assert platform.model.updates_applied == 1

    def test_online_update_disabled(self, rng):
        platform = make_platform(
            ContinuousConfig(
                online_update=False,
                schedule=ScheduleConfig(interval_chunks=100),
            )
        )
        platform.observe(chunk(rng))
        assert platform.model.updates_applied == 0

    def test_per_row_online_updates(self, rng):
        platform = make_platform(
            ContinuousConfig(
                online_batch_rows=1,
                schedule=ScheduleConfig(interval_chunks=100),
            )
        )
        platform.observe(chunk(rng, rows=6))
        assert platform.model.updates_applied == 6

    def test_chunks_observed_counter(self, rng):
        platform = make_platform()
        for __ in range(4):
            platform.observe(chunk(rng))
        assert platform.chunks_observed == 4

    def test_proactive_duration_includes_sampling(self, rng):
        config = ContinuousConfig(
            sample_size_chunks=2,
            max_materialized_chunks=0,  # force re-materialization
            schedule=ScheduleConfig(interval_chunks=2),
        )
        platform = make_platform(config)
        platform.observe(chunk(rng))
        outcome = platform.observe(chunk(rng))
        assert outcome is not None
        assert outcome.chunks_materialized == 0
        assert outcome.duration > 0

    def test_no_optimization_mode_charges_statistics(self, rng):
        config = ContinuousConfig(
            sample_size_chunks=2,
            max_materialized_chunks=0,
            online_statistics=False,
            schedule=ScheduleConfig(interval_chunks=2),
        )
        platform = make_platform(config)
        platform.observe(chunk(rng))
        platform.observe(chunk(rng))
        labels = platform.engine.tracker.breakdown().by_label
        assert any(key.startswith("recompute:") for key in labels)


class TestPredict:
    def test_predictions_returned_with_labels(self, rng):
        platform = make_platform()
        platform.observe(chunk(rng))
        predictions, labels = platform.predict(chunk(rng))
        assert predictions.shape == labels.shape

    def test_dynamic_scheduler_learns_rates(self, rng):
        config = ContinuousConfig(
            schedule=ScheduleConfig(kind="dynamic", slack=2.0)
        )
        platform = make_platform(config)
        platform.predict(chunk(rng))
        assert platform.rules[0].trigger.prediction_rate() > 0


class TestInitialFit:
    def test_initial_data_enters_pool(self, rng):
        platform = make_platform()
        platform.initial_fit(
            [chunk(rng, rows=30)],
            max_iterations=10,
            tolerance=0.0,
            store=True,
        )
        assert platform.data_manager.num_chunks == 1

    def test_learns(self, rng):
        platform = make_platform()
        platform.initial_fit(
            [chunk(rng, rows=100)], max_iterations=2000, tolerance=1e-8
        )
        predictions, labels = platform.predict(chunk(rng))
        assert np.mean((predictions - labels) ** 2) < 0.1


class TestRecover:
    def test_recover_with_monitor_matches_uninterrupted(self, tmp_path):
        def monitored():
            # The crash is the one thing a recovered timeline rightly
            # shows and an uninterrupted one cannot; every other rule
            # must resume mid-window.
            telemetry = Telemetry()
            telemetry.attach_monitor(
                rules=[
                    rule
                    for rule in default_rules()
                    if rule.signal != names.RELIABILITY_RECOVERED
                ],
                config=MonitorConfig(window=1e-4),
            )
            return telemetry

        def checkpointing(name):
            return CheckpointConfig(
                directory=tmp_path / name, cadence_chunks=4
            )

        def feed(platform, tables):
            for table in tables:
                platform.predict(table)
                platform.observe(table)

        config = ContinuousConfig(
            sample_size_chunks=2,
            schedule=ScheduleConfig(kind="static", interval_chunks=3),
        )
        rng = np.random.default_rng(7)
        chunks = [chunk(rng) for __ in range(12)]

        reference = monitored()
        feed(
            make_platform(
                config,
                telemetry=reference,
                checkpoint=checkpointing("reference"),
            ),
            chunks,
        )
        feed(
            make_platform(
                config,
                telemetry=monitored(),
                checkpoint=checkpointing("crashed"),
            ),
            chunks[:10],  # checkpoints at 4 and 8, then the crash
        )
        recovered = monitored()
        platform = ContinuousDeploymentPlatform.recover(
            checkpointing("crashed"), config=config, telemetry=recovered
        )
        assert platform.chunks_observed == 8
        feed(platform, chunks[8:])
        reference.monitor.flush()
        recovered.monitor.flush()
        health = recovered.monitor.health()
        assert health["windows_closed"] > 1
        assert health == reference.monitor.health()

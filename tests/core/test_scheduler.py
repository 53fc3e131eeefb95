"""Unit tests for the proactive-training schedulers."""

import pytest

from repro.core.scheduler import (
    DegradationTrigger,
    DynamicScheduler,
    StaticScheduler,
)
from repro.driftdetect import DriftTrigger, PageHinkley
from repro.exceptions import SchedulingError, ValidationError


class TestStaticScheduler:
    def test_every_k_chunks(self):
        scheduler = StaticScheduler(interval_chunks=3)
        decisions = [
            scheduler.should_train(i, now=0.0) for i in range(9)
        ]
        assert decisions == [
            False, False, True,
            False, False, True,
            False, False, True,
        ]

    def test_interval_one_fires_always(self):
        scheduler = StaticScheduler(interval_chunks=1)
        assert all(
            scheduler.should_train(i, now=0.0) for i in range(5)
        )

    def test_negative_chunk_index_rejected(self):
        with pytest.raises(SchedulingError):
            StaticScheduler(2).should_train(-1, now=0.0)

    def test_invalid_interval(self):
        from repro.exceptions import ValidationError

        with pytest.raises(ValidationError):
            StaticScheduler(0)

    def test_records_are_noops(self):
        scheduler = StaticScheduler(2)
        scheduler.record_training(0.0, 1.0)
        scheduler.record_predictions(5, 0.1)


class TestDynamicScheduler:
    def test_initial_interval_respected(self):
        scheduler = DynamicScheduler(slack=2.0, initial_interval=5.0)
        assert not scheduler.should_train(0, now=0.0)
        assert not scheduler.should_train(1, now=4.9)
        assert scheduler.should_train(2, now=5.0)

    def test_formula_six(self):
        """T' = S * T * pr * pl after a training completes."""
        scheduler = DynamicScheduler(slack=2.0, initial_interval=1.0)
        scheduler.should_train(0, now=0.0)  # anchors the clock
        # 100 queries in 10 virtual seconds: pr = 10/s, pl = 0.1 s.
        scheduler.record_predictions(count=100, duration=10.0)
        # A training of duration 3 ends at t = 13.
        scheduler.record_training(started_at=10.0, duration=3.0)
        expected_interval = 2.0 * 3.0 * 10.0 * 0.1  # = 6
        assert scheduler.next_training_time == pytest.approx(
            13.0 + expected_interval
        )
        assert not scheduler.should_train(5, now=18.9)
        assert scheduler.should_train(6, now=19.0)

    def test_larger_slack_longer_interval(self):
        intervals = []
        for slack in (1.0, 4.0):
            scheduler = DynamicScheduler(slack=slack)
            scheduler.should_train(0, now=0.0)
            scheduler.record_predictions(10, 1.0)
            scheduler.record_training(started_at=1.0, duration=1.0)
            intervals.append(scheduler.next_training_time)
        assert intervals[1] > intervals[0]

    def test_no_prediction_traffic_falls_back(self):
        scheduler = DynamicScheduler(slack=2.0, initial_interval=2.0)
        scheduler.should_train(0, now=0.0)
        scheduler.record_training(started_at=0.0, duration=1.0)
        # pr*pl = 0 -> falls back to the initial interval.
        assert scheduler.next_training_time == pytest.approx(3.0)

    def test_rate_and_latency_accessors(self):
        scheduler = DynamicScheduler()
        assert scheduler.prediction_rate() == 0.0
        assert scheduler.prediction_latency() == 0.0
        scheduler.record_predictions(20, 4.0)
        assert scheduler.prediction_rate() == pytest.approx(5.0)
        assert scheduler.prediction_latency() == pytest.approx(0.2)

    def test_slack_below_one_rejected(self):
        with pytest.raises(SchedulingError, match="slack"):
            DynamicScheduler(slack=0.5)

    @pytest.mark.parametrize("slack", [float("nan"), float("inf")])
    def test_non_finite_slack_rejected(self, slack):
        """``nan < 1.0`` is false: a hand-rolled ``<`` let these in, and
        after the first training ``next_training_time`` was nan/inf —
        the deployment silently never trained again."""
        with pytest.raises(ValidationError, match="slack"):
            DynamicScheduler(slack=slack)

    def test_invalid_records(self):
        scheduler = DynamicScheduler()
        with pytest.raises(SchedulingError):
            scheduler.record_training(0.0, -1.0)
        with pytest.raises(SchedulingError):
            scheduler.record_predictions(-1, 0.0)


class TestDynamicSchedulerEdgeCases:
    def test_clock_origin_anchors_on_first_query(self):
        """The first should_train call anchors the virtual clock, so a
        deployment starting at a non-zero cost baseline still waits a
        full initial interval."""
        scheduler = DynamicScheduler(slack=2.0, initial_interval=3.0)
        assert not scheduler.should_train(0, now=100.0)
        assert not scheduler.should_train(1, now=102.9)
        assert scheduler.should_train(2, now=103.0)

    def test_consecutive_trainings_reschedule(self):
        scheduler = DynamicScheduler(slack=1.0, initial_interval=1.0)
        scheduler.should_train(0, now=0.0)
        scheduler.record_predictions(10, 2.0)  # pr=5, pl=0.2
        scheduler.record_training(started_at=1.0, duration=2.0)
        first_next = scheduler.next_training_time
        scheduler.record_training(
            started_at=first_next, duration=4.0
        )
        # Longer training -> proportionally later next slot.
        assert scheduler.next_training_time > first_next + 4.0

    def test_zero_duration_training_uses_fallback(self):
        scheduler = DynamicScheduler(slack=2.0, initial_interval=7.0)
        scheduler.should_train(0, now=0.0)
        scheduler.record_predictions(10, 1.0)
        scheduler.record_training(started_at=5.0, duration=0.0)
        assert scheduler.next_training_time == pytest.approx(12.0)


class TestDynamicSchedulerBurstyLoad:
    """record_predictions / record_training interaction under uneven
    query traffic."""

    def test_rate_times_latency_is_scale_free(self):
        """pr·pl over the *same* totals is identically 1, so formula
        (6) reduces to interval = S·T — the paper's product is really
        a utilisation correction, not a traffic multiplier. Bursty
        and steady traffic with equal totals must schedule alike."""
        bursty = DynamicScheduler(slack=3.0, initial_interval=1.0)
        steady = DynamicScheduler(slack=3.0, initial_interval=1.0)
        bursty.should_train(0, now=0.0)
        steady.should_train(0, now=0.0)
        # Steady: one record. Bursty: a huge burst, silence, then a
        # trickle — identical totals (1000 queries, 10s serving time).
        steady.record_predictions(1000, 10.0)
        bursty.record_predictions(900, 1.0)
        bursty.record_predictions(0, 0.0)
        bursty.record_predictions(100, 9.0)
        for scheduler in (bursty, steady):
            scheduler.record_training(started_at=20.0, duration=4.0)
        assert bursty.next_training_time == pytest.approx(
            steady.next_training_time
        )
        # interval = S·T = 12, on top of the training end at t=24.
        assert bursty.next_training_time == pytest.approx(36.0)

    def test_burst_between_trainings_updates_averages(self):
        """Queries recorded after one training reshape the averages
        the next record_training sees."""
        scheduler = DynamicScheduler(slack=2.0, initial_interval=1.0)
        scheduler.should_train(0, now=0.0)
        scheduler.record_predictions(10, 2.0)  # pr=5, pl=0.2
        scheduler.record_training(started_at=2.0, duration=1.0)
        # S·T·pr·pl = 2·1·1 = 2 -> next at 3 + 2 = 5.
        assert scheduler.next_training_time == pytest.approx(5.0)
        # A burst arrives: 90 more queries in 1s of serving time.
        scheduler.record_predictions(90, 1.0)
        assert scheduler.prediction_rate() == pytest.approx(100 / 3)
        assert scheduler.prediction_latency() == pytest.approx(0.03)
        scheduler.record_training(started_at=5.0, duration=2.0)
        # pr·pl still 1: next = 7 + 2·2 = 11, burst or not.
        assert scheduler.next_training_time == pytest.approx(11.0)

    def test_no_training_means_interval_unchanged_by_load(self):
        """record_predictions alone never moves the schedule — only a
        completed training reschedules."""
        scheduler = DynamicScheduler(slack=2.0, initial_interval=4.0)
        scheduler.should_train(0, now=0.0)
        before = scheduler.next_training_time
        for __ in range(50):
            scheduler.record_predictions(1000, 0.5)
        assert scheduler.next_training_time == before
        assert scheduler.should_train(1, now=4.0)

    def test_zero_count_records_are_harmless(self):
        scheduler = DynamicScheduler(slack=2.0, initial_interval=1.0)
        scheduler.should_train(0, now=0.0)
        scheduler.record_predictions(0, 0.0)
        assert scheduler.prediction_rate() == 0.0
        assert scheduler.prediction_latency() == 0.0
        scheduler.record_training(started_at=1.0, duration=1.0)
        # Still no traffic -> the initial-interval fallback applies.
        assert scheduler.next_training_time == pytest.approx(3.0)

    def test_interleaving_matches_platform_call_order(self):
        """The platform records predictions (predict) and trainings
        (observe) in arbitrary interleavings; the scheduler state must
        depend only on the totals, not the call order."""
        a = DynamicScheduler(slack=2.0, initial_interval=1.0)
        b = DynamicScheduler(slack=2.0, initial_interval=1.0)
        a.should_train(0, now=0.0)
        b.should_train(0, now=0.0)
        a.record_predictions(30, 3.0)
        a.record_predictions(70, 7.0)
        b.record_predictions(70, 7.0)
        b.record_predictions(30, 3.0)
        a.record_training(started_at=12.0, duration=3.0)
        b.record_training(started_at=12.0, duration=3.0)
        assert a.next_training_time == pytest.approx(
            b.next_training_time
        )


class TestSchedulerStateRoundTrip:
    def drive(self, scheduler, start=0):
        """A deterministic load pattern; returns the decision trace."""
        decisions = []
        now = float(start)
        for chunk in range(start, start + 12):
            scheduler.record_predictions(20, 0.04 * (1 + chunk % 3))
            fire = scheduler.should_train(chunk, now)
            decisions.append(fire)
            if fire:
                scheduler.record_training(now, 0.5)
            now += 1.0
        return decisions

    def test_dynamic_round_trip_reproduces_decisions(self):
        """Restoring mid-stream continues the decision sequence the
        uninterrupted scheduler would have produced."""
        reference = DynamicScheduler(slack=2.5, initial_interval=2.0)
        first_half = self.drive(reference, start=0)
        state = reference.state_dict()
        second_half = self.drive(reference, start=12)

        resumed = DynamicScheduler(slack=2.5, initial_interval=2.0)
        resumed.load_state_dict(state)
        assert self.drive(resumed, start=12) == second_half
        assert resumed.state_dict() == reference.state_dict()
        assert first_half.count(True) >= 1  # the pattern exercised it

    def test_dynamic_state_contents(self):
        scheduler = DynamicScheduler(slack=2.0)
        scheduler.record_predictions(10, 0.5)
        state = scheduler.state_dict()
        assert state["prediction_count"] == 10
        assert state["prediction_duration"] == 0.5

    def test_static_round_trip_is_stateless(self):
        scheduler = StaticScheduler(interval_chunks=4)
        state = scheduler.state_dict()
        assert state == {}
        restored = StaticScheduler(interval_chunks=4)
        restored.load_state_dict(state)
        assert [
            restored.should_train(i, now=0.0) for i in range(8)
        ] == [
            scheduler.should_train(i, now=0.0) for i in range(8)
        ]


class TestTriggerParameterValidation:
    """Every trigger parameter goes through ``utils.validation``: a
    non-finite or fractional value is refused when the trigger is
    built, by name, instead of constructing a trigger that can never
    fire (``nan`` comparisons are false), truncating silently
    (``int(2.5)``) or dying on a bare ``ValueError`` (``int(nan)``)."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tolerance_ratio": float("nan")},
            {"tolerance_ratio": float("inf")},
            {"min_absolute_delta": float("nan")},
            {"window_chunks": 2.5},
            {"window_chunks": float("nan")},
            {"cooldown_chunks": float("nan")},
            {"cooldown_chunks": 2.5},
        ],
        ids=lambda kwargs: "-".join(f"{k}={v}" for k, v in kwargs.items()),
    )
    def test_degradation_trigger(self, kwargs):
        (name,) = kwargs
        with pytest.raises(ValidationError, match=name):
            DegradationTrigger(**kwargs)

    @pytest.mark.parametrize("delay", [float("nan"), 2.5, -1])
    def test_drift_trigger_delay(self, delay):
        with pytest.raises(ValidationError, match="delay_chunks"):
            DriftTrigger(PageHinkley(), delay_chunks=delay)

"""Tests for the drift detectors and the drift-aware deployment: a
continuous deployment with a :class:`DriftTrigger` training rule."""

import numpy as np
import pytest

from repro.core.config import ContinuousConfig, ScheduleConfig
from repro.core.deployment import ContinuousDeployment
from repro.core.platform import TrainingRule
from repro.data.sampling import WindowBasedSampler
from repro.data.table import Table
from repro.driftdetect import (
    DriftState,
    DriftTrigger,
    PageHinkley,
    WindowComparisonDetector,
)
from repro.exceptions import ValidationError
from repro.ml.models import LinearRegression
from repro.ml.optim import Adam
from repro.pipeline.components.assembler import FeatureAssembler
from repro.pipeline.components.scaler import StandardScaler
from repro.pipeline.pipeline import Pipeline

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.exceptions.ConvergenceWarning"
)

ALL_DETECTORS = [
    lambda: PageHinkley(threshold=2.0, minimum_observations=30),
    lambda: WindowComparisonDetector(window_size=25, ratio=0.3),
]


def feed(detector, errors):
    return [detector.update(e) for e in errors]


def drift_aware(
    detector,
    sample_size_chunks,
    initial_iterations,
    initial_tolerance,
    bursts_per_drift=1,
    burst_window=5,
    burst_delay_chunks=4,
):
    """A fitted continuous deployment whose schedule (interval 1000)
    never fires, plus the drift response; returns it with the rule."""
    rule = TrainingRule(
        DriftTrigger(detector, delay_chunks=burst_delay_chunks),
        WindowBasedSampler(burst_window),
        bursts_per_drift,
    )
    deployment = ContinuousDeployment(
        Pipeline(
            [
                StandardScaler(["x"], name="scaler"),
                FeatureAssembler(["x"], "y", name="assembler"),
            ]
        ),
        LinearRegression(num_features=1),
        Adam(0.05),
        config=ContinuousConfig(
            sample_size_chunks=sample_size_chunks,
            schedule=ScheduleConfig(interval_chunks=1000),
        ),
        metric="regression",
        seed=0,
        rules=[rule],
    )
    rng = np.random.default_rng(9)
    x = rng.standard_normal(60)
    deployment.initial_fit(
        [Table({"x": x, "y": 3.0 * x})],
        max_iterations=initial_iterations,
        tolerance=initial_tolerance,
    )
    return deployment, rule


class TestPageHinkley:
    def test_detects_mean_shift(self):
        detector = PageHinkley(threshold=2.0)
        states = feed(detector, [0.1] * 100 + [0.8] * 60)
        assert DriftState.DRIFT in states

    def test_tolerates_noise_below_delta(self):
        rng = np.random.default_rng(2)
        detector = PageHinkley(delta=0.05, threshold=5.0)
        noise = 0.2 + rng.normal(0, 0.01, 800)
        states = feed(detector, noise)
        assert DriftState.DRIFT not in states

    def test_statistic_accessor(self):
        detector = PageHinkley()
        assert detector.statistic == 0.0
        feed(detector, [0.1] * 50)
        assert detector.statistic >= 0.0

    def test_works_on_regression_residuals(self):
        detector = PageHinkley(threshold=3.0)
        small = [0.05] * 100
        large = [2.5] * 40
        states = feed(detector, small + large)
        assert DriftState.DRIFT in states


class TestWindowComparison:
    def test_detects_degradation(self):
        detector = WindowComparisonDetector(window_size=20, ratio=0.2)
        states = feed(detector, [0.1] * 40 + [0.3] * 30)
        assert DriftState.DRIFT in states

    def test_reference_mean(self):
        detector = WindowComparisonDetector(window_size=5)
        feed(detector, [0.2] * 5)
        assert detector.reference_mean == pytest.approx(0.2)

    def test_stable_within_ratio(self):
        detector = WindowComparisonDetector(window_size=20, ratio=0.5)
        states = feed(detector, [0.2] * 40 + [0.25] * 40)
        assert DriftState.DRIFT not in states


class TestDetectorContract:
    @pytest.mark.parametrize(
        "factory", ALL_DETECTORS,
        ids=["page_hinkley", "window"],
    )
    def test_self_reset_after_drift(self, factory):
        detector = factory()
        surge = [0.0] * 200 + [1.0] * 100
        feed(detector, surge)
        first_drifts = detector.drifts_detected
        assert first_drifts >= 1
        # After the reset, a fresh surge is detected again.
        feed(detector, surge)
        assert detector.drifts_detected > first_drifts

    @pytest.mark.parametrize(
        "factory", ALL_DETECTORS,
        ids=["page_hinkley", "window"],
    )
    def test_update_many_reports_worst(self, factory):
        detector = factory()
        state = detector.update_many([0.0] * 200 + [1.0] * 100)
        assert state is DriftState.DRIFT

    def test_observation_counters(self):
        detector = PageHinkley()
        detector.update_many([0.1] * 10)
        assert detector.observations == 10


class TestDriftAwareDeployment:
    def _make(self, detector, bursts=1):
        return drift_aware(detector, 3, 400, 1e-8, bursts_per_drift=bursts)

    @staticmethod
    def _shifting_stream(num_chunks=40, shift_at=20):
        rng = np.random.default_rng(4)
        for index in range(num_chunks):
            x = rng.standard_normal(12)
            slope = 3.0 if index < shift_at else -3.0
            yield Table({"x": x, "y": slope * x})

    def test_burst_fires_on_drift(self):
        detector = PageHinkley(threshold=2.0, minimum_observations=30)
        deployment, rule = self._make(detector)
        result = deployment.run(self._shifting_stream())
        assert rule.trigger.drifts_detected >= 1
        # The schedule (interval 1000) never fires: every proactive
        # training came from a drift burst.
        assert (
            result.counters["proactive_trainings"]
            == rule.trigger.drifts_detected * rule.repeats
        )
        assert rule.trigger.drift_chunks[0] >= 20

    def test_no_drift_no_burst(self):
        detector = PageHinkley(threshold=50.0)
        deployment, rule = self._make(detector)
        # Stream is noisy but threshold is enormous.
        result = deployment.run(self._shifting_stream(10, shift_at=99))
        assert rule.trigger.drifts_detected == 0
        assert result.counters["proactive_trainings"] == 0

    def test_invalid_bursts(self):
        with pytest.raises(ValidationError, match="repeats"):
            self._make(PageHinkley(), bursts=0)


class TestBurstMechanics:
    def _deployment(self, **kwargs):
        detector = PageHinkley(threshold=2.0, minimum_observations=30)
        return drift_aware(detector, 2, 100, 1e-6, **kwargs)

    @staticmethod
    def _stream(num_chunks=40, shift_at=15):
        rng = np.random.default_rng(4)
        for index in range(num_chunks):
            x = rng.standard_normal(12)
            slope = 3.0 if index < shift_at else -3.0
            yield Table({"x": x, "y": slope * x})

    def test_regular_sampler_restored_after_burst(self):
        deployment, rule = self._deployment(burst_delay_chunks=2)
        regular = deployment.platform.data_manager.sampler
        result = deployment.run(self._stream())
        assert result.counters["proactive_trainings"] >= 1
        assert deployment.platform.data_manager.sampler is regular
        assert regular is not rule.sampler

    def test_burst_delay_defers_response(self):
        deployment, rule = self._deployment(
            burst_delay_chunks=5, bursts_per_drift=2
        )
        result = deployment.run(self._stream())
        assert rule.trigger.drifts_detected >= 1
        # All proactive trainings came from bursts (schedule is 1000).
        assert result.counters["proactive_trainings"] % 2 == 0

    def test_no_duplicate_detection_during_countdown(self):
        """While a burst countdown is pending, further DRIFT signals
        must not queue additional bursts."""
        deployment, rule = self._deployment(
            burst_delay_chunks=10, bursts_per_drift=1
        )
        deployment.run(self._stream(num_chunks=30))
        assert rule.trigger.drifts_detected <= 2

    def test_invalid_burst_parameters(self):
        with pytest.raises(ValidationError, match="window_size"):
            self._deployment(burst_window=0)
        with pytest.raises(ValidationError, match="delay_chunks"):
            self._deployment(burst_delay_chunks=-1)


class TestDetectorStateRoundTrip:
    @pytest.mark.parametrize(
        "factory", ALL_DETECTORS,
        ids=["page_hinkley", "window"],
    )
    def test_restored_detector_continues_identically(self, factory):
        """Snapshot mid-stream, restore into a fresh detector, and the
        remaining verdicts match the uninterrupted detector's."""
        rng = np.random.default_rng(11)
        prefix = (rng.random(120) < 0.08).astype(float)
        suffix = np.concatenate(
            [(rng.random(60) < 0.08).astype(float), np.ones(90)]
        )

        reference = factory()
        feed(reference, prefix)
        state = reference.state_dict()
        tail_states = feed(reference, suffix)
        assert DriftState.DRIFT in tail_states  # the surge registers

        resumed = factory()
        resumed.load_state_dict(state)
        assert feed(resumed, suffix) == tail_states
        assert resumed.observations == reference.observations
        assert resumed.drifts_detected == reference.drifts_detected

    @pytest.mark.parametrize(
        "factory", ALL_DETECTORS,
        ids=["page_hinkley", "window"],
    )
    def test_state_dict_round_trips_exactly(self, factory):
        import pickle

        detector = factory()
        feed(detector, [0.0, 1.0, 0.0, 0.0, 1.0] * 20)
        state = detector.state_dict()
        restored = factory()
        restored.load_state_dict(state)
        assert pickle.dumps(restored.state_dict()) == pickle.dumps(
            state
        )

    def test_lifetime_counters_survive(self):
        detector = PageHinkley(threshold=2.0, minimum_observations=30)
        feed(detector, [0.0] * 200 + [1.0] * 100)
        assert detector.drifts_detected >= 1
        restored = PageHinkley(threshold=2.0, minimum_observations=30)
        restored.load_state_dict(detector.state_dict())
        assert restored.drifts_detected == detector.drifts_detected
        assert restored.observations == detector.observations

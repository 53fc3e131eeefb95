"""Tests for the bounded-backoff retry policy."""

import pytest

from repro.exceptions import ReliabilityError
from repro.experiments.common import make_deployment, url_scenario
from repro.obs import Telemetry
from repro.reliability import (
    FaultPlan,
    FaultSpec,
    Retrier,
    RetryExhausted,
    RetryPolicy,
    SimulatedCrash,
    TransientFault,
)
from repro.reliability.sites import STORAGE_READ


def flaky(failures, exception=TransientFault):
    """A callable that fails ``failures`` times, then returns 'ok'."""
    state = {"remaining": failures, "calls": 0}

    def fn():
        state["calls"] += 1
        if state["remaining"] > 0:
            state["remaining"] -= 1
            raise exception(f"boom #{state['calls']}")
        return "ok"

    return fn, state


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ReliabilityError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ReliabilityError, match="delays"):
            RetryPolicy(base_delay=-0.1)
        with pytest.raises(ReliabilityError, match="multiplier"):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ReliabilityError, match="jitter"):
            RetryPolicy(jitter=1.5)

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            base_delay=0.1, multiplier=2.0, max_delay=0.5
        )
        assert policy.backoff(0) == pytest.approx(0.1)
        assert policy.backoff(1) == pytest.approx(0.2)
        assert policy.backoff(2) == pytest.approx(0.4)
        assert policy.backoff(3) == pytest.approx(0.5)  # capped
        assert policy.backoff(10) == pytest.approx(0.5)


class TestRetrier:
    def test_success_after_transient_failures(self):
        fn, state = flaky(2)
        retrier = Retrier(RetryPolicy(max_attempts=4, seed=1))
        assert retrier.call(fn, site="stream.read") == "ok"
        assert state["calls"] == 3
        assert retrier.retries == 2
        assert retrier.total_delay > 0.0

    def test_exhaustion_chains_last_error(self):
        fn, state = flaky(10)
        retrier = Retrier(RetryPolicy(max_attempts=3, seed=1))
        with pytest.raises(RetryExhausted, match="3 attempts") as info:
            retrier.call(fn, site="storage.read")
        assert state["calls"] == 3
        assert isinstance(info.value.__cause__, TransientFault)

    def test_simulated_crash_never_retried(self):
        fn, state = flaky(5, exception=SimulatedCrash)
        retrier = Retrier(RetryPolicy(max_attempts=4))
        with pytest.raises(SimulatedCrash):
            retrier.call(fn)
        assert state["calls"] == 1
        assert retrier.retries == 0

    def test_non_retryable_propagates_immediately(self):
        fn, state = flaky(5, exception=ValueError)
        retrier = Retrier(RetryPolicy(max_attempts=4))
        with pytest.raises(ValueError):
            retrier.call(fn)
        assert state["calls"] == 1

    def test_plain_oserror_is_retryable_by_default(self):
        fn, state = flaky(1, exception=OSError)
        retrier = Retrier(RetryPolicy(max_attempts=3, seed=0))
        assert retrier.call(fn) == "ok"
        assert state["calls"] == 2

    def test_jitter_is_deterministic_across_retriers(self):
        policy = RetryPolicy(max_attempts=5, jitter=0.5, seed=42)

        def total_delay():
            fn, _ = flaky(3)
            retrier = Retrier(policy)
            retrier.call(fn)
            return retrier.total_delay

        first, second = total_delay(), total_delay()
        assert first == second
        assert first > 0.0

    def test_delays_are_virtual_not_slept(self):
        import time

        fn, _ = flaky(3)
        policy = RetryPolicy(
            max_attempts=4, base_delay=5.0, max_delay=100.0, seed=0
        )
        retrier = Retrier(policy)
        started = time.perf_counter()
        retrier.call(fn)
        assert time.perf_counter() - started < 1.0
        assert retrier.total_delay >= 15.0  # 5 + 10 + 20 pre-jitter

    def test_telemetry_counters(self):
        telemetry = Telemetry()
        fn, _ = flaky(2)
        retrier = Retrier(
            RetryPolicy(max_attempts=3, seed=0), telemetry=telemetry
        )
        retrier.call(fn, site="stream.read")
        always_fails, _ = flaky(99)
        with pytest.raises(RetryExhausted):
            retrier.call(always_fails, site="stream.read")
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["reliability.retries"] == 4  # 2 + 2
        assert counters["reliability.retries_exhausted"] == 1


class TestEveryReadOfHistoryIsGuarded:
    """``guard_reads`` promises that transient ``storage.read`` faults
    are retried. Proactive training's re-materialization and
    periodical retraining's replay of the history take the same
    guarded read (``DataManager.read_raw``); the retraining loop used
    to go around it, and one such fault killed the run."""

    @staticmethod
    def run(approach, faulty, retry=RetryPolicy()):
        # Bounded, so that continuous re-reads what it samples.
        scenario = url_scenario("test").with_continuous(
            max_materialized_chunks=2
        )
        plan = FaultPlan.of(FaultSpec(STORAGE_READ, 1, "io_error"))
        deployment = make_deployment(
            scenario,
            approach,
            fault_plan=plan if faulty else None,
            retry=retry,
        )
        result = scenario.fit(deployment).run(scenario.make_stream())
        return result, deployment.reliability.retrier

    @pytest.mark.parametrize("approach", ["continuous", "periodical"])
    def test_absorbed_fault_costs_a_retry_and_nothing_else(self, approach):
        clean, unused = self.run(approach, faulty=False)
        result, retrier = self.run(approach, faulty=True)
        assert (unused.retries, unused.total_delay) == (0, 0.0)
        assert retrier.retries == 1
        assert retrier.total_delay > 0.0  # the backoff lands here,
        assert result.total_cost == clean.total_cost  # not on the clock
        assert result.final_error == clean.final_error
        assert result.error_history == clean.error_history

    @pytest.mark.parametrize("approach", ["continuous", "periodical"])
    def test_without_a_policy_the_fault_surfaces(self, approach):
        with pytest.raises(TransientFault):
            self.run(approach, faulty=True, retry=None)

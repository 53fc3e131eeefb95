"""Unit tests for scenario builders and helpers."""

import pytest

from repro.exceptions import ValidationError
from repro.experiments import common
from repro.experiments.common import (
    APPROACHES,
    Scenario,
    make_deployment,
    run_approach,
    taxi_scenario,
    url_scenario,
)
from repro.ml.optim import RMSProp


class TestScenarioBuilders:
    def test_url_test_scale(self):
        scenario = url_scenario("test")
        assert scenario.metric == "classification"
        assert scenario.num_chunks == 40
        chunks = list(scenario.make_stream())
        assert len(chunks) == 40

    def test_taxi_test_scale(self):
        scenario = taxi_scenario("test")
        assert scenario.metric == "regression"
        assert scenario.num_chunks == 30

    def test_bench_scale_larger(self):
        assert (
            url_scenario("bench").num_chunks
            > url_scenario("test").num_chunks
        )

    def test_invalid_scale(self):
        with pytest.raises(ValidationError):
            url_scenario("huge")

    def test_streams_reproducible(self):
        scenario = url_scenario("test")
        first = list(scenario.make_stream())
        second = list(scenario.make_stream())
        assert first[5] == second[5]

    def test_factories_independent(self):
        scenario = url_scenario("test")
        assert scenario.make_model() is not scenario.make_model()
        assert scenario.make_pipeline() is not scenario.make_pipeline()


class TestScenarioHelpers:
    def test_with_continuous_override(self):
        scenario = url_scenario("test")
        adapted = scenario.with_continuous(sample_size_chunks=17)
        assert adapted.continuous_config.sample_size_chunks == 17
        # Original untouched.
        assert scenario.continuous_config.sample_size_chunks != 17

    def test_with_optimizer(self):
        scenario = url_scenario("test").with_optimizer(
            "rmsprop", learning_rate=0.2
        )
        optimizer = scenario.make_optimizer()
        assert isinstance(optimizer, RMSProp)
        assert optimizer.learning_rate == 0.2

    def test_with_regularization(self):
        scenario = url_scenario("test").with_regularization(0.5)
        model = scenario.make_model()
        assert model.regularizer.strength == 0.5

    def test_scenario_is_dataclass_copyable(self):
        scenario = url_scenario("test")
        assert isinstance(scenario, Scenario)
        assert scenario.online_batch_rows == 1


@pytest.mark.filterwarnings("ignore::repro.exceptions.ConvergenceWarning")
@pytest.mark.parametrize("approach", APPROACHES)
def test_runners_are_make_deployment_fit_run(approach):
    """``run_<approach>`` / ``run_approach`` and the three steps spelled
    out by hand give the same trajectories and counters."""
    scenario = url_scenario("test")
    deployment = make_deployment(scenario, approach)
    deployment.initial_fit(
        scenario.make_initial_data(),
        seed=scenario.seed,
        **scenario.initial_fit_kwargs,
    )
    by_hand = deployment.run(scenario.make_stream())
    runners = [lambda s: run_approach(s, approach)]
    named = getattr(common, f"run_{approach}", None)
    if named is not None:  # there is no run_threshold
        runners.append(named)
    for runner in runners:
        result = runner(scenario)
        assert result.approach == approach
        assert result.error_history == by_hand.error_history
        assert result.cost_history == by_hand.cost_history
        assert result.counters == by_hand.counters


@pytest.mark.filterwarnings("ignore::repro.exceptions.ConvergenceWarning")
def test_run_continuous_config_override():
    scenario = url_scenario("test")
    config = scenario.with_continuous(sample_size_chunks=2).continuous_config
    overridden = common.run_continuous(scenario, config=config)
    assert overridden.counters != common.run_continuous(scenario).counters
    assert overridden.counters == common.run_continuous(
        scenario.with_continuous(sample_size_chunks=2)
    ).counters

"""Unit tests for scenario builders and helpers."""

from dataclasses import asdict
from itertools import islice

import pytest

from repro.datasets.url import URLStreamGenerator
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


class TestOneStreamPerScenario:
    """A scenario generates its tables once; every run reads them."""

    @pytest.fixture
    def made(self, monkeypatch):
        """One entry per ``_make_rows`` call of any URL generator."""
        calls = []
        inner = URLStreamGenerator._make_rows

        def counting(self, rng, num_rows, *args):
            calls.append(num_rows)
            return inner(self, rng, num_rows, *args)

        monkeypatch.setattr(URLStreamGenerator, "_make_rows", counting)
        return calls

    def test_iterators_yield_the_same_tables_made_once(self, made):
        scenario = url_scenario("test")
        first = list(scenario.make_stream())
        second = list(scenario.make_stream())
        assert len(first) == len(second) == scenario.num_chunks
        assert all(a is b for a, b in zip(first, second))
        assert len(made) == scenario.num_chunks
        scenario.make_initial_data()
        scenario.make_initial_data()
        assert len(made) == scenario.num_chunks + 1

    def test_stream_fills_as_the_furthest_iterator_pulls(self, made):
        scenario = url_scenario("test")
        half = list(islice(scenario.make_stream(), 15))
        assert len(made) == 15  # a prefix generates only the prefix
        whole = list(scenario.make_stream())
        assert len(whole) == scenario.num_chunks
        assert all(a is b for a, b in zip(half, whole))
        assert len(made) == scenario.num_chunks
        fresh = list(url_scenario("test").make_stream())
        assert whole == fresh  # in order, nothing skipped or repeated

    def test_interleaved_iterators(self):
        scenario = taxi_scenario("test")
        ahead, behind = scenario.make_stream(), scenario.make_stream()
        pulled = [next(ahead), next(ahead), next(behind), next(ahead)]
        assert pulled[2] is pulled[0]
        rest = list(behind)
        assert rest[0] is pulled[1] and rest[1] is pulled[3]
        assert len(rest) == scenario.num_chunks - 1

    def test_copies_share_separate_builds_do_not(self):
        scenario = url_scenario("test")
        table = next(iter(scenario.make_stream()))
        copy = scenario.with_continuous(sample_size_chunks=3)
        assert next(iter(copy.make_stream())) is table
        assert copy.make_initial_data()[0] is scenario.make_initial_data()[0]
        other = next(iter(url_scenario("test").make_stream()))
        assert other is not table and other == table

    def test_initial_data_is_a_fresh_list_of_shared_tables(self):
        scenario = taxi_scenario("test")
        first = scenario.make_initial_data()
        second = scenario.make_initial_data()
        assert first is not second
        assert len(first) == len(second) == 1
        assert first[0] is second[0]
        first.clear()  # a caller's list is its own
        assert len(scenario.make_initial_data()) == 1

    @pytest.mark.filterwarnings(
        "ignore::repro.exceptions.ConvergenceWarning"
    )
    @pytest.mark.parametrize("build", [url_scenario, taxi_scenario])
    def test_back_to_back_runs_equal_runs_on_fresh_tables(self, build):
        """Identity-keyed caches (the prefix memo, the hasher's plan)
        are per deployment: a second run over the same ``Table``
        objects starts as cold as one over new ones."""
        shared = build("test")
        for approach in ("continuous", "periodical", "continuous"):
            on_shared = asdict(run_approach(shared, approach))
            on_fresh = asdict(run_approach(build("test"), approach))
            assert on_shared == on_fresh


class TestScenarioHelpers:
    def test_with_continuous_override(self):
        scenario = url_scenario("test")
        adapted = scenario.with_continuous(sample_size_chunks=17)
        assert adapted.continuous_config.sample_size_chunks == 17
        # Original untouched.
        assert scenario.continuous_config.sample_size_chunks != 17

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

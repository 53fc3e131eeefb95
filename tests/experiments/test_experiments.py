"""Integration tests: every experiment driver runs at test scale and
produces paper-shaped outputs."""

import numpy as np
import pytest

from repro.experiments.common import taxi_scenario, url_scenario
from repro.experiments.exp1_deployment import (
    cost_ratios,
    run_experiment1,
)
from repro.experiments.exp2_sampling import (
    average_errors,
    run_sampling_experiment,
)
from repro.experiments.exp2_tuning import (
    ADAPTATIONS,
    REG_STRENGTHS,
    best_per_adaptation,
    figure5,
    ranking_agreement,
    table3,
)
from repro.experiments.exp3_materialization import (
    figure7,
    figure7_no_optimization,
    table4,
)
from repro.experiments.exp4_tradeoff import (
    headline_claims,
    run_tradeoff,
    tradeoff_points,
)

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.exceptions.ConvergenceWarning"
)


@pytest.fixture(scope="module")
def url_results():
    """Experiment 1 on the URL test scenario, shared across tests."""
    return run_experiment1(url_scenario("test"))


class TestExperiment1:
    def test_all_approaches_present(self, url_results):
        assert set(url_results) == {
            "online", "periodical", "continuous",
        }

    def test_histories_aligned(self, url_results):
        lengths = {
            len(series)
            for result in url_results.values()
            for series in (result.error_history, result.cost_history)
        }
        assert lengths == {40}

    def test_cost_ordering(self, url_results):
        """Online <= continuous << periodical — the headline shape."""
        ratios = cost_ratios(url_results)
        assert ratios["online"] <= 1.05
        assert ratios["periodical"] > 1.5

    def test_series_extraction(self, url_results):
        assert set(url_results) == {"online", "periodical", "continuous"}
        assert all(
            len(result.error_history) == 40
            for result in url_results.values()
        )

    def test_errors_are_rates(self, url_results):
        for result in url_results.values():
            assert 0.0 <= result.final_error <= 1.0


class TestExperiment2Tuning:
    def test_grid_shape(self):
        scenario = url_scenario("test")
        grid = table3(
            scenario,
            adaptations=("adam", "rmsprop"),
            strengths=(1e-2, 1e-3),
        )
        assert len(grid) == 4
        assert all(0.0 <= v <= 1.0 for v in grid.values())

    def test_best_per_adaptation(self):
        grid = {
            ("adam", 1e-2): 0.3,
            ("adam", 1e-3): 0.1,
            ("rmsprop", 1e-2): 0.2,
        }
        best = best_per_adaptation(grid)
        assert best == {"adam": 1e-3, "rmsprop": 1e-2}

    def test_figure5_histories(self):
        scenario = url_scenario("test")
        histories = figure5(
            scenario, {"adam": 1e-3}, deploy_fraction=0.2
        )
        assert set(histories) == {"adam"}
        assert len(histories["adam"]) == 8

    def test_figure5_invalid_fraction(self):
        with pytest.raises(ValueError):
            figure5(url_scenario("test"), {}, deploy_fraction=0.0)

    def test_ranking_agreement_types(self):
        grid = {("adam", 1e-3): 0.1, ("rmsprop", 1e-3): 0.2}
        deployed = {"adam": [0.1, 0.1], "rmsprop": [0.3, 0.3]}
        assert ranking_agreement(grid, deployed) is True
        deployed_flipped = {
            "adam": [0.4, 0.4], "rmsprop": [0.1, 0.1],
        }
        assert ranking_agreement(grid, deployed_flipped) is False

    def test_constants_match_paper(self):
        assert ADAPTATIONS == ("adam", "rmsprop", "adadelta")
        assert REG_STRENGTHS == (1e-2, 1e-3, 1e-4)


class TestExperiment2Sampling:
    def test_all_samplers_run(self):
        results = run_sampling_experiment(url_scenario("test"))
        assert set(results) == {"time", "window", "uniform"}
        averages = average_errors(results)
        assert all(0.0 <= v <= 1.0 for v in averages.values())


class TestExperiment3:
    def test_table4_small_scale(self):
        cells = table4(
            num_chunks=300, sample_size=10, sample_every=5, seed=1
        )
        assert len(cells) == 6  # 3 samplers x 2 rates
        for cell in cells:
            assert 0.0 <= cell.empirical <= 1.0
            if cell.sampler == "time":
                assert cell.theoretical is None
            else:
                assert cell.empirical == pytest.approx(
                    cell.theoretical, abs=0.08
                )

    def test_table4_time_beats_uniform(self):
        cells = table4(
            num_chunks=400, sample_size=20, sample_every=2, seed=0
        )
        by_key = {(c.sampler, c.rate): c.empirical for c in cells}
        assert by_key[("time", 0.2)] > by_key[("uniform", 0.2)]

    def test_figure7_costs_decrease_with_materialization(self):
        scenario = url_scenario("test")
        costs = figure7(
            scenario, rates=(0.0, 1.0), samplers=("uniform",)
        )
        assert costs[("uniform", 0.0)] > costs[("uniform", 1.0)]

    def test_figure7_no_optimization_is_most_expensive(self):
        scenario = url_scenario("test")
        optimized = figure7(
            scenario, rates=(1.0,), samplers=("time",)
        )[("time", 1.0)]
        no_opt = figure7_no_optimization(scenario)
        assert no_opt > optimized


class TestExperiment4:
    def test_points_from_results(self, url_results):
        points = tradeoff_points(url_results)
        assert {p.approach for p in points} == {
            "online", "periodical", "continuous",
        }

    def test_headline_claims(self, url_results):
        claims = headline_claims(tradeoff_points(url_results))
        assert claims["cost_ratio"] > 1.0
        assert np.isfinite(claims["quality_delta"])

    def test_run_tradeoff_taxi(self):
        points = run_tradeoff(taxi_scenario("test"))
        assert len(points) == 3


class TestExperiment5:
    """Gated canary rollout vs blind promotion (serving layer)."""

    @pytest.fixture(scope="class")
    def taxi_serving(self):
        from repro.experiments.exp5_serving import (
            run_serving_experiment,
        )

        return run_serving_experiment(taxi_scenario("test"))

    def test_all_policies_present(self, taxi_serving):
        assert set(taxi_serving) == {"frozen", "blind", "gated"}
        lengths = {
            len(point.error_history)
            for point in taxi_serving.values()
        }
        assert lengths == {30}

    def test_gated_beats_blind_under_corruption(self, taxi_serving):
        """The headline: blind promotion inherits every corrupted
        candidate's error; the gate pays only the canary fraction
        briefly, then rejects."""
        from repro.experiments.exp5_serving import headline_claims

        claims = headline_claims(taxi_serving)
        assert (
            claims["gated_average_error"]
            < claims["blind_average_error"]
        )
        assert claims["gated_vs_blind_improvement"] > 0

    def test_gate_took_protective_actions(self, taxi_serving):
        gated = taxi_serving["gated"].transitions
        assert gated.get("stage", 0) > 0
        assert (
            gated.get("reject", 0) + gated.get("rollback", 0) > 0
        )
        # Blind promotes everything, frozen does nothing.
        assert "promote" in taxi_serving["blind"].transitions
        assert taxi_serving["frozen"].transitions == {}

"""Experiment 7: rollout under synthetic traffic, end to end.

One full test-scale run covers the acceptance criteria: admission
control sheds during the burst, the SLO alerts fire *and* resolve,
proactive training keeps running between phases, and both identity
checks (batched vs row-at-a-time, fresh-endpoint replay) hold.
"""

from types import SimpleNamespace

import pytest

from repro.experiments import exp7_traffic
from repro.experiments.common import url_scenario
from repro.experiments.exp7_traffic import (
    PHASES,
    default_traffic_config,
    headline_claims,
    run_traffic_experiment,
)
from repro.obs import MonitorConfig, Telemetry
from repro.traffic import monitor_rules_for_traffic

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.exceptions.ConvergenceWarning"
)


@pytest.fixture(scope="module")
def exp7_run(tmp_path_factory):
    scenario = url_scenario("test")
    config = default_traffic_config(scenario)
    telemetry = Telemetry()
    monitor = telemetry.attach_monitor(
        rules=monitor_rules_for_traffic(
            p99_budget=config.p99_budget,
            shed_per_window=config.shed_per_window,
        ),
        config=MonitorConfig(),
    )
    result = run_traffic_experiment(
        scenario,
        config=config,
        telemetry=telemetry,
        workdir=tmp_path_factory.mktemp("exp7"),
    )
    telemetry.close()
    return result, monitor.health()


class TestPhases:
    def test_all_three_phases_ran(self, exp7_run):
        result, __ = exp7_run
        assert set(result.phases) == set(PHASES)
        assert result.phases["steady"].mode == "shadow"
        assert result.phases["spike"].mode == "canary"
        assert result.phases["recovery"].mode == "canary"

    def test_burst_sheds_but_steady_does_not(self, exp7_run):
        result, __ = exp7_run
        assert result.phases["spike"].result.report.shed > 0
        assert result.phases["steady"].result.report.shed == 0
        assert result.phases["recovery"].result.report.shed == 0

    def test_spike_degrades_p99(self, exp7_run):
        result, __ = exp7_run
        claims = headline_claims(result)
        assert claims["spike_vs_steady_p99_ratio"] > 1.0
        assert claims["spike_p99_latency"] > claims["steady_p99_latency"]

    def test_training_continued_during_run(self, exp7_run):
        result, __ = exp7_run
        assert result.training_chunks > 0
        assert result.training_cost > 0.0


class TestIdentity:
    def test_batched_equals_row_at_a_time(self, exp7_run):
        result, __ = exp7_run
        assert result.bit_identical

    def test_replay_is_byte_identical(self, exp7_run):
        result, __ = exp7_run
        assert result.replay_identical

    def test_replay_regenerates_the_arrivals(self, monkeypatch, tmp_path):
        """The replay pass draws its arrivals afresh: a generator that
        answers the second draw with other seeds fails the check."""
        draw = exp7_traffic._phase_arrivals
        calls = []

        def drifting(scenario, config, pool_rows):
            calls.append(scenario.seed)
            if len(calls) == 2:
                scenario = SimpleNamespace(seed=scenario.seed + 1)
            return draw(scenario, config, pool_rows)

        monkeypatch.setattr(exp7_traffic, "_phase_arrivals", drifting)
        result = run_traffic_experiment(
            url_scenario("test"), workdir=tmp_path
        )
        assert len(calls) == 2
        assert result.bit_identical
        assert not result.replay_identical


class TestAlerts:
    def test_slo_and_shed_alerts_fire_and_resolve(self, exp7_run):
        __, health = exp7_run
        assert health["fired"] >= 2
        assert health["resolved"] == health["fired"]
        by_rule = {i["rule"] for i in health["incidents"]}
        assert "slo_p99_latency" in by_rule
        assert "traffic_shed_spike" in by_rule

    def test_no_flapping(self, exp7_run):
        """The tuned rule set raises one incident per rule, not a
        storm of fire/resolve cycles."""
        __, health = exp7_run
        assert len(health["incidents"]) <= 4


class TestClaims:
    def test_claims_are_complete(self, exp7_run):
        result, __ = exp7_run
        claims = headline_claims(result)
        assert claims["spike_shed"] > 0
        assert claims["batched_equals_row_at_a_time"] == 1.0
        assert claims["replay_byte_identical"] == 1.0
        assert claims["mean_batch_size"] > 1.0
        assert claims["training_chunks_during_run"] == float(
            result.training_chunks
        )

"""Experiment 8 mechanics at smoke scale. The full 24-tenant result is
gated against the committed ``BENCH_exp8_fleet.json`` by
``benchmarks/bench_trajectories.py::test_exp8_fleet`` under ``make
bench-check``."""

from __future__ import annotations

import re

import pytest

from repro.exceptions import ValidationError
from repro.experiments.exp8_fleet import (
    COMPARED_POLICIES,
    format_comparison,
    headline_claims,
    run_fleet_experiment,
)
from repro.obs import Telemetry


@pytest.fixture(scope="module")
def smoke_result():
    return run_fleet_experiment(
        num_tenants=4, seed=5, chunks=6, rows=8
    )


class TestExperiment:
    def test_rejects_degenerate_fleets(self):
        with pytest.raises(ValidationError, match="2 tenants"):
            run_fleet_experiment(num_tenants=1)

    def test_runs_both_policies_at_equal_budget(self, smoke_result):
        assert set(smoke_result.runs) == set(COMPARED_POLICIES)
        assert smoke_result.equal_budget

    def test_identity_verification_passes(self, smoke_result):
        assert smoke_result.digests_identical
        assert smoke_result.telemetry_identical
        # Both policies' runs carry live telemetry, so the telemetry
        # check compares real digests, never None with None.
        for policy in COMPARED_POLICIES:
            digest = smoke_result.runs[policy].telemetry_digest
            assert re.fullmatch(r"[0-9a-f]{64}", digest or ""), policy

    def test_telemetry_binds_to_first_fair_run_only(self):
        telemetry = Telemetry()
        run_fleet_experiment(
            num_tenants=2,
            seed=3,
            chunks=4,
            rows=8,
            telemetry=telemetry,
            verify_identity=False,
        )
        assert telemetry.events, "fair-share run was not instrumented"

    def test_claims_are_consistent(self, smoke_result):
        claims = headline_claims(smoke_result)
        assert claims["fair_advantage"] == pytest.approx(
            claims["round_robin_aggregate_error"]
            - claims["fair_aggregate_error"]
        )
        assert (
            claims["fair_trainings"]
            == claims["round_robin_trainings"]
        )

    def test_format_comparison_lists_both_policies(
        self, smoke_result
    ):
        table = format_comparison(smoke_result)
        for policy in COMPARED_POLICIES:
            assert policy in table

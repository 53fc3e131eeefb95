"""Tests for the deterministic fault-injection harness."""

import pytest

from repro.exceptions import ReliabilityError
from repro.obs import Telemetry
from repro.reliability import (
    KINDS,
    KNOWN_SITES,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    SimulatedCrash,
    TransientFault,
)


class TestFaultSpec:
    def test_occurrence_must_be_positive(self):
        with pytest.raises(ReliabilityError, match="occurrence"):
            FaultSpec("stream.read", 0, "crash")
        with pytest.raises(ReliabilityError, match="occurrence"):
            FaultSpec("stream.read", -3, "io_error")

    def test_kind_validated(self):
        with pytest.raises(ReliabilityError, match="kind"):
            FaultSpec("stream.read", 1, "explode")

    def test_unknown_site_rejected(self):
        with pytest.raises(ReliabilityError, match="stream.reed"):
            FaultSpec("stream.reed", 1, "crash")
        with pytest.raises(ReliabilityError, match="site"):
            FaultPlan.crash_at("checkpoint.wirte", 2)
        with pytest.raises(ReliabilityError, match="site"):
            FaultPlan.seeded(0, count=1, sites=("storage.raed",))

    def test_all_known_kinds_accepted(self):
        for kind in KINDS:
            assert FaultSpec("storage.read", 2, kind).kind == kind


class TestFaultPlan:
    def test_duplicate_site_occurrence_rejected(self):
        with pytest.raises(ReliabilityError, match="duplicate"):
            FaultPlan.of(
                FaultSpec("stream.read", 3, "crash"),
                FaultSpec("stream.read", 3, "io_error"),
            )

    def test_same_occurrence_different_sites_allowed(self):
        plan = FaultPlan.of(
            FaultSpec("stream.read", 3, "crash"),
            FaultSpec("storage.read", 3, "io_error"),
        )
        assert len(plan) == 2

    def test_crash_at_is_single_crash(self):
        plan = FaultPlan.crash_at("stream.read", 12)
        assert plan.specs == (FaultSpec("stream.read", 12, "crash"),)

    def test_seeded_is_deterministic(self):
        first = FaultPlan.seeded(21, count=8)
        second = FaultPlan.seeded(21, count=8)
        assert first.specs == second.specs
        assert len(first) == 8
        for spec in first.specs:
            assert spec.site in KNOWN_SITES
            assert spec.kind in KINDS
            assert 1 <= spec.occurrence <= 50

    def test_seeded_differs_across_seeds(self):
        assert (
            FaultPlan.seeded(1, count=6).specs
            != FaultPlan.seeded(2, count=6).specs
        )

    def test_seeded_validation(self):
        with pytest.raises(ReliabilityError, match="count"):
            FaultPlan.seeded(0, count=-1)
        with pytest.raises(ReliabilityError, match="non-empty"):
            FaultPlan.seeded(0, count=1, sites=())


class TestFaultInjector:
    def test_crash_fires_on_exact_occurrence(self):
        injector = FaultInjector(FaultPlan.crash_at("stream.read", 3))
        injector.fire("stream.read")
        injector.fire("stream.read")
        with pytest.raises(SimulatedCrash, match="occurrence 3"):
            injector.fire("stream.read")
        assert injector.hits("stream.read") == 3

    def test_io_error_is_transient_and_oserror(self):
        injector = FaultInjector(
            FaultPlan.of(FaultSpec("storage.read", 1, "io_error"))
        )
        with pytest.raises(TransientFault) as excinfo:
            injector.fire("storage.read")
        assert isinstance(excinfo.value, OSError)

    def test_sites_count_independently(self):
        injector = FaultInjector(FaultPlan.crash_at("stream.read", 2))
        injector.fire("stream.read")
        injector.fire("storage.read")
        injector.fire("storage.read")  # does not advance stream.read
        with pytest.raises(SimulatedCrash):
            injector.fire("stream.read")

    def test_corrupt_flips_exactly_one_byte(self):
        injector = FaultInjector(
            FaultPlan.of(FaultSpec("checkpoint.write", 1, "corrupt"))
        )
        blob = bytes(range(64))
        injector.fire("checkpoint.write")  # corrupt does not raise
        mutated = injector.corrupt("checkpoint.write", blob)
        assert len(mutated) == len(blob)
        diff = [i for i in range(len(blob)) if mutated[i] != blob[i]]
        assert len(diff) == 1
        assert mutated[diff[0]] ^ blob[diff[0]] == 0xFF

    def test_corrupt_noop_when_not_scheduled(self):
        injector = FaultInjector(
            FaultPlan.of(FaultSpec("checkpoint.write", 2, "corrupt"))
        )
        injector.fire("checkpoint.write")
        assert injector.corrupt("checkpoint.write", b"abc") == b"abc"
        assert injector.fired == []

    def test_fired_records_in_order(self):
        plan = FaultPlan.of(
            FaultSpec("stream.read", 2, "io_error"),
            FaultSpec("stream.read", 4, "io_error"),
        )
        injector = FaultInjector(plan)
        for _ in range(4):
            try:
                injector.fire("stream.read")
            except TransientFault:
                pass
        assert [
            (f.site, f.occurrence, f.kind) for f in injector.fired
        ] == [
            ("stream.read", 2, "io_error"),
            ("stream.read", 4, "io_error"),
        ]

    def test_two_invocations_fire_identically(self):
        """The acceptance property: same plan, same hits, same faults."""
        plan = FaultPlan.seeded(17, count=10, kinds=("io_error",))

        def drive():
            injector = FaultInjector(plan)
            outcomes = []
            for _ in range(60):
                for site in KNOWN_SITES:
                    try:
                        injector.fire(site)
                        outcomes.append((site, None))
                    except TransientFault:
                        outcomes.append((site, "io_error"))
            return outcomes, [
                (f.site, f.occurrence, f.kind) for f in injector.fired
            ]

        assert drive() == drive()

    def test_telemetry_counts_injected_faults(self):
        telemetry = Telemetry()
        injector = FaultInjector(
            FaultPlan.of(FaultSpec("stream.read", 1, "io_error")),
            telemetry=telemetry,
        )
        with pytest.raises(TransientFault):
            injector.fire("stream.read")
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["reliability.faults_injected"] == 1

"""Determinism guarantees of the provenance ledger.

Two invariants, mirroring the repo-wide byte-identity contract:

* two same-seed instrumented runs export **byte-identical**
  ``lineage.json`` files;
* a run crashed mid-stream and recovered from its checkpoint (the
  ledger rides the ``"lineage"`` checkpoint key) finishes with a
  ``lineage.json`` byte-identical to the uninterrupted run;
* entries are stamped on the run's virtual clock — the one the trace
  uses — although the ledger is attached before the engine that owns
  that clock exists.
"""

import pytest

from repro.experiments.common import make_deployment, url_scenario
from repro.experiments.exp1_deployment import run_experiment1
from repro.obs import Telemetry
from repro.reliability import (
    CheckpointConfig,
    FaultPlan,
    SimulatedCrash,
)

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.exceptions.ConvergenceWarning"
)

CADENCE = 3


def exp1_lineage(tmp_path, tag):
    telemetry = Telemetry()
    telemetry.attach_ledger()
    run_experiment1(url_scenario("test"), telemetry=telemetry)
    path = tmp_path / f"lineage-{tag}.json"
    telemetry.ledger.write(path)
    return path


class TestSameSeedByteIdentity:
    def test_exp1_twice_identical(self, tmp_path):
        first = exp1_lineage(tmp_path, "first")
        second = exp1_lineage(tmp_path, "second")
        assert first.read_bytes() == second.read_bytes()
        assert len(first.read_bytes()) > 200  # non-trivial graph


class TestVirtualClockStamps:
    """``attach_ledger()`` runs before the engine binds the clock; the
    ledger used to keep the tracer's placeholder and stamp ``t = 0.0``
    on every entry."""

    @pytest.fixture(scope="class")
    def telemetry(self):
        telemetry = Telemetry()
        telemetry.attach_ledger()  # before any engine exists
        scn = url_scenario("test")
        deployment = make_deployment(scn, "continuous", telemetry=telemetry)
        deployment.initial_fit(
            scn.make_initial_data(),
            seed=scn.seed,
            **scn.initial_fit_kwargs,
        )
        deployment.run(scn.make_stream())
        return telemetry

    def test_stamps_move_with_the_run(self, telemetry):
        stamps = [entry["t"] for entry in telemetry.ledger.entries]
        assert len(set(stamps)) > 10
        assert stamps == sorted(stamps)
        assert stamps[-1] > 0.0

    def test_training_node_lies_inside_its_span(self, telemetry):
        spans = [
            (event["t"], event["t"] + event["dur"])
            for event in telemetry.events
            if event["name"] == "platform.proactive_training"
        ]
        trainings = telemetry.ledger.nodes("training")
        assert len(trainings) == len(spans) > 0
        for node, (start, end) in zip(trainings, spans):
            assert start < node["t"] <= end

    def test_node_and_its_trace_point_share_a_stamp(self, telemetry):
        points = {
            event["attrs"]["id"]: event["t"]
            for event in telemetry.events
            if event["name"] == "lineage.node"
        }
        nodes = telemetry.ledger.nodes()
        assert nodes and all(
            points[node["id"]] == node["t"] for node in nodes
        )


class TestRecoveryByteIdentity:
    def run_reference(self, scn, directory):
        telemetry = Telemetry()
        telemetry.attach_ledger()
        config = CheckpointConfig(
            directory=directory, cadence_chunks=CADENCE, keep=3
        )
        deployment = make_deployment(
            scn, "continuous", telemetry=telemetry, checkpoint=config
        )
        deployment.initial_fit(
            scn.make_initial_data(),
            seed=scn.seed,
            **scn.initial_fit_kwargs,
        )
        deployment.run(scn.make_stream())
        return telemetry.ledger

    def test_crash_recover_identical(self, tmp_path):
        scn = url_scenario("test")
        reference = self.run_reference(scn, tmp_path / "reference")

        config = CheckpointConfig(
            directory=tmp_path / "crash",
            cadence_chunks=CADENCE,
            keep=3,
        )
        crashing_telemetry = Telemetry()
        crashing_telemetry.attach_ledger()
        crashing = make_deployment(
            scn,
            "continuous",
            telemetry=crashing_telemetry,
            checkpoint=config,
            fault_plan=FaultPlan.crash_at("stream.read", 9),
        )
        crashing.initial_fit(
            scn.make_initial_data(),
            seed=scn.seed,
            **scn.initial_fit_kwargs,
        )
        with pytest.raises(SimulatedCrash):
            crashing.run(scn.make_stream())
        # The crashed ledger is a strict prefix — shorter than the
        # finished reference.
        assert len(crashing_telemetry.ledger) < len(reference)

        recovering_telemetry = Telemetry()
        recovering_telemetry.attach_ledger()
        recovering = make_deployment(
            scn,
            "continuous",
            telemetry=recovering_telemetry,
            checkpoint=config,
        )
        recovering.recover(scn.make_stream())

        ref_path = tmp_path / "ref-lineage.json"
        rec_path = tmp_path / "rec-lineage.json"
        reference.write(ref_path)
        recovering_telemetry.ledger.write(rec_path)
        assert ref_path.read_bytes() == rec_path.read_bytes()

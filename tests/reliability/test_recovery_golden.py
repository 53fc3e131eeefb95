"""Golden recovery tests: kill at chunk *k*, recover, byte-identity.

The reliability layer's core invariant: a run killed after ``k``
chunks and recovered from its latest checkpoint finishes with
**byte-identical** results — prequential error history, cost history,
deployment counters, telemetry counters, model parameters, and served
predictions — to the same run uninterrupted. Checked for every
deployment strategy at three kill points.
"""

from collections import Counter

import numpy as np
import pytest

from repro.core.deployment import ContinuousDeployment
from repro.core.platform import ContinuousDeploymentPlatform, TrainingRule
from repro.data.sampling import WindowBasedSampler
from repro.driftdetect import DDM, DriftTrigger, PageHinkley
from repro.exceptions import ReliabilityError, ValidationError
from repro.experiments.common import (
    APPROACHES,
    make_deployment,
    url_scenario,
)
from repro.ml.metrics import errors_from_predictions
from repro.obs import Telemetry
from repro.reliability import (
    CheckpointConfig,
    CheckpointStore,
    FaultPlan,
    SimulatedCrash,
)

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.exceptions.ConvergenceWarning"
)

#: Checkpoint every CADENCE chunks; kill after each KILLS[i] chunks.
CADENCE = 3
KILLS = (5, 8, 12)

_BASELINES = {}


def scenario():
    return url_scenario("test")


def fit(deployment, scn):
    deployment.initial_fit(
        scn.make_initial_data(), seed=scn.seed, **scn.initial_fit_kwargs
    )
    return deployment


def baseline(approach):
    """Uninterrupted reference run (cached per approach)."""
    if approach not in _BASELINES:
        scn = scenario()
        deployment = fit(make_deployment(scn, approach), scn)
        result = deployment.run(scn.make_stream())
        probe = scn.make_initial_data()[0]
        predictions, __ = deployment._predict(probe)
        _BASELINES[approach] = (result, deployment, predictions)
    return _BASELINES[approach]


def crash_then_recover(approach, kill_after, tmp_path, telemetry=None):
    """Run to the kill point, die, recover, finish.

    When ``telemetry`` is given, the crashing run gets its *own*
    fresh ``Telemetry`` (a real crash loses the in-memory registry;
    the checkpoint carries the metrics state) and the recovering run
    continues into ``telemetry``.
    """
    scn = scenario()
    config = CheckpointConfig(
        directory=tmp_path / f"{approach}-{kill_after}",
        cadence_chunks=CADENCE,
        keep=3,
    )
    crashing = fit(
        make_deployment(
            scn,
            approach,
            telemetry=Telemetry() if telemetry is not None else None,
            checkpoint=config,
            fault_plan=FaultPlan.crash_at("stream.read", kill_after + 1),
        ),
        scn,
    )
    with pytest.raises(SimulatedCrash):
        crashing.run(scn.make_stream())
    recovering = make_deployment(
        scn, approach, telemetry=telemetry, checkpoint=config
    )
    result = recovering.recover(scn.make_stream())
    return result, recovering, scn


@pytest.mark.parametrize("kill_after", KILLS)
@pytest.mark.parametrize("approach", APPROACHES)
class TestGoldenRecovery:
    def test_recovered_run_is_byte_identical(
        self, approach, kill_after, tmp_path
    ):
        reference, ref_deployment, ref_predictions = baseline(approach)
        result, recovered, scn = crash_then_recover(
            approach, kill_after, tmp_path
        )

        assert result.recovery is not None
        assert result.recovery.cursor == (
            (kill_after // CADENCE) * CADENCE
        )
        assert result.chunks_processed == reference.chunks_processed
        # exact equality, not approx: recovery must be bit-for-bit
        assert result.error_history == reference.error_history
        assert result.cost_history == reference.cost_history
        assert result.counters == reference.counters
        assert (
            recovered.model.params_vector().tobytes()
            == ref_deployment.model.params_vector().tobytes()
        )
        probe = scn.make_initial_data()[0]
        predictions, __ = recovered._predict(probe)
        assert predictions.tobytes() == ref_predictions.tobytes()


class TestTelemetryCounters:
    def test_counters_identical_after_recovery(self, tmp_path):
        """Telemetry counters survive the crash byte-for-byte.

        The baseline here checkpoints too (at the same cadence): the
        ``reliability.checkpoints_written`` counter is part of the
        metrics state, so both runs must write the same checkpoints.
        """
        scn = scenario()
        reference_telemetry = Telemetry()
        config = CheckpointConfig(
            directory=tmp_path / "reference",
            cadence_chunks=CADENCE,
            keep=3,
        )
        fit(
            make_deployment(
                scn,
                "continuous",
                telemetry=reference_telemetry,
                checkpoint=config,
            ),
            scn,
        ).run(scn.make_stream())

        telemetry = Telemetry()
        __, recovered, __ = crash_then_recover(
            "continuous", 8, tmp_path, telemetry=telemetry
        )
        assert (
            telemetry.metrics.snapshot()["counters"]
            == reference_telemetry.metrics.snapshot()["counters"]
        )


class TestRecoveryReads:
    def test_each_pack_is_read_once(self, tmp_path, monkeypatch):
        """Log tails and chunks share packs: recovering a run with a
        ledger and a monitor opens each pack its checkpoint names once."""
        scn = scenario()
        config = CheckpointConfig(
            directory=tmp_path, cadence_chunks=CADENCE, keep=3
        )

        def stacked(**options):
            telemetry = Telemetry()
            telemetry.attach_ledger()
            telemetry.attach_monitor()
            return make_deployment(
                scn,
                "continuous",
                telemetry=telemetry,
                checkpoint=config,
                **options,
            )

        crashing = fit(
            stacked(fault_plan=FaultPlan.crash_at("stream.read", 9)), scn
        )
        with pytest.raises(SimulatedCrash):
            crashing.run(scn.make_stream())
        latest = CheckpointStore(config).load_latest()
        assert latest.logs and latest.manifest is not None
        loads = Counter()
        load = CheckpointStore._load_pack

        def counted(self, name):
            loads[name] += 1
            return load(self, name)

        monkeypatch.setattr(CheckpointStore, "_load_pack", counted)
        result = stacked().recover(scn.make_stream())
        assert result.recovery.cursor == latest.cursor
        assert loads == Counter(CheckpointStore.references(latest))


class TestDriftAwareRecovery:
    def make(self, scn, **reliability):
        return ContinuousDeployment(
            scn.make_pipeline(),
            scn.make_model(),
            scn.make_optimizer(),
            config=scn.continuous_config,
            metric=scn.metric,
            seed=scn.seed,
            rules=[TrainingRule(DriftTrigger(DDM()), WindowBasedSampler(5))],
            **reliability,
        )

    @staticmethod
    def drift_state(deployment):
        return deployment.platform.rules[1].trigger.state_dict()

    def test_detector_state_survives_recovery(self, tmp_path):
        scn = scenario()
        uninterrupted = fit(self.make(scn), scn)
        reference = uninterrupted.run(scn.make_stream())

        config = CheckpointConfig(
            directory=tmp_path, cadence_chunks=CADENCE, keep=3
        )
        crashing = fit(
            self.make(
                scn,
                checkpoint=config,
                fault_plan=FaultPlan.crash_at("stream.read", 9),
            ),
            scn,
        )
        with pytest.raises(SimulatedCrash):
            crashing.run(scn.make_stream())
        recovered = self.make(scn, checkpoint=config)
        result = recovered.recover(scn.make_stream())
        assert result.error_history == reference.error_history
        assert result.cost_history == reference.cost_history
        assert result.counters == reference.counters
        drift = self.drift_state(recovered)
        assert drift == self.drift_state(uninterrupted)
        assert drift["detector"]["observations"] > 0


class TestRecoveryEdgeCases:
    def test_recover_without_checkpoint_option_rejected(self):
        scn = scenario()
        deployment = make_deployment(scn, "online")
        with pytest.raises(ReliabilityError, match="checkpoint="):
            deployment.recover(scn.make_stream())

    def test_recover_under_wrong_approach_rejected(self, tmp_path):
        scn = scenario()
        config = CheckpointConfig(
            directory=tmp_path, cadence_chunks=CADENCE
        )
        crashing = fit(
            make_deployment(
                scn,
                "online",
                checkpoint=config,
                fault_plan=FaultPlan.crash_at("stream.read", 9),
            ),
            scn,
        )
        with pytest.raises(SimulatedCrash):
            crashing.run(scn.make_stream())
        mismatched = make_deployment(scn, "periodical", checkpoint=config)
        with pytest.raises(ReliabilityError, match="written by"):
            mismatched.recover(scn.make_stream())

    def test_crash_before_first_checkpoint_unrecoverable(
        self, tmp_path
    ):
        scn = scenario()
        config = CheckpointConfig(
            directory=tmp_path, cadence_chunks=CADENCE
        )
        crashing = fit(
            make_deployment(
                scn,
                "online",
                checkpoint=config,
                fault_plan=FaultPlan.crash_at("stream.read", 2),
            ),
            scn,
        )
        with pytest.raises(SimulatedCrash):
            crashing.run(scn.make_stream())
        recovering = make_deployment(scn, "online", checkpoint=config)
        with pytest.raises(ReliabilityError, match="no valid"):
            recovering.recover(scn.make_stream())


class TestPlatformRecover:
    def test_platform_classmethod_round_trip(self, tmp_path):
        """Standalone-platform checkpointing (no deployment loop),
        with the configured schedule alone and with one more rule."""
        self.round_trip(tmp_path / "schedule", tuple)
        self.round_trip(
            tmp_path / "drift",
            lambda: [
                TrainingRule(
                    DriftTrigger(PageHinkley(), delay_chunks=1),
                    WindowBasedSampler(3),
                )
            ],
        )
        with pytest.raises(ValidationError, match="2 trigger"):
            ContinuousDeploymentPlatform.recover(
                CheckpointConfig(directory=tmp_path / "drift"),
                config=scenario().continuous_config,
            )

    def round_trip(self, directory, make_rules):
        scn = scenario()

        def build(**kwargs):
            return ContinuousDeploymentPlatform(
                pipeline=scn.make_pipeline(),
                model=scn.make_model(),
                optimizer=scn.make_optimizer(),
                config=scn.continuous_config,
                seed=scn.seed,
                rules=make_rules(),
                **kwargs,
            )

        def feed(platform, tables):
            for table in tables:
                predictions, labels = platform.predict(table)
                platform.record_errors(
                    errors_from_predictions("rate", predictions, labels)
                )
                platform.observe(table)

        chunks = list(scn.make_stream())[:12]
        initial = scn.make_initial_data()

        reference = build()
        reference.initial_fit(
            initial, seed=scn.seed, **scn.initial_fit_kwargs
        )
        feed(reference, chunks)

        config = CheckpointConfig(
            directory=directory, cadence_chunks=4, keep=2
        )
        interrupted = build(checkpoint=config)
        interrupted.initial_fit(
            initial, seed=scn.seed, **scn.initial_fit_kwargs
        )
        feed(interrupted, chunks[:9])  # checkpoints at 4 and 8

        recovered = ContinuousDeploymentPlatform.recover(
            config, config=scn.continuous_config, rules=make_rules()
        )
        assert recovered.chunks_observed == 8
        feed(recovered, chunks[8:])
        assert (
            recovered.model.params_vector().tobytes()
            == reference.model.params_vector().tobytes()
        )
        assert recovered.chunks_observed == reference.chunks_observed
        assert recovered.state_dict()["triggers"] == (
            reference.state_dict()["triggers"]
        )
        assert len(recovered.proactive_outcomes) == len(
            reference.proactive_outcomes
        ) >= 2 + len(make_rules())

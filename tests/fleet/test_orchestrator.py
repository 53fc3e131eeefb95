"""FleetOrchestrator: determinism, quotas, telemetry, and recovery."""

from __future__ import annotations

import pytest

from repro.exceptions import ReliabilityError
from repro.fleet import (
    FleetOrchestrator,
    FleetSpec,
    TenantSpec,
    make_fleet,
)
from repro.fleet.alerts import fleet_rules
from repro.obs import Telemetry, names
from repro.reliability import CheckpointConfig


def _small_fleet(policy="fair_share", **overrides) -> FleetSpec:
    defaults = dict(chunks=6, rows=8)
    defaults.update(overrides)
    return make_fleet(4, seed=5, policy=policy, **defaults)


class TestDeterminism:
    def test_same_spec_same_digest(self):
        spec = _small_fleet()
        first = FleetOrchestrator(spec).run()
        second = FleetOrchestrator(spec).run()
        assert first.digest == second.digest
        assert first.schedule_log == second.schedule_log
        assert first.per_tenant_error == second.per_tenant_error

    def test_telemetry_stream_is_deterministic(self):
        spec = _small_fleet()
        first = FleetOrchestrator(spec, telemetry=Telemetry()).run()
        second = FleetOrchestrator(spec, telemetry=Telemetry()).run()
        assert first.telemetry_digest is not None
        assert first.telemetry_digest == second.telemetry_digest

    def test_policies_diverge(self):
        fair = FleetOrchestrator(_small_fleet()).run()
        naive = FleetOrchestrator(
            _small_fleet(policy="round_robin")
        ).run()
        assert fair.digest != naive.digest
        # Equal budget across policies: the scheduling comparison is
        # never confounded by one policy training more.
        assert sum(fair.trainings) == sum(naive.trainings)


class TestExecution:
    def test_run_covers_every_stream(self):
        spec = _small_fleet()
        result = FleetOrchestrator(spec).run()
        assert result.epochs == spec.epochs
        assert all(e > 0 for e in result.per_tenant_error)
        assert result.aggregate_error > 0

    def test_online_tenants_receive_no_slots(self):
        spec = FleetSpec(
            tenants=(
                TenantSpec(
                    name="busy", dataset="url", seed=1,
                    chunks=4, rows=8,
                ),
                TenantSpec(
                    name="opted-out", dataset="taxi", seed=2,
                    strategy="online", chunks=4, rows=8,
                ),
            ),
            train_slots=2,
            materialize_bytes=8192,
        )
        result = FleetOrchestrator(spec).run()
        assert result.trainings[1] == 0
        assert result.trainings[0] > 0

    def test_a_two_slot_grant_fires_in_one_observe(self):
        # Seed 0's 6x10 fleet gives tenant 0 both slots of epoch 4:
        # two bursts, inside the observe of its one chunk that epoch.
        orchestrator = FleetOrchestrator(make_fleet(6, seed=0, chunks=10))
        orchestrator.setup()
        for _ in range(4):
            orchestrator.run_epoch()
        tenant = orchestrator.tenants[0]
        platform = tenant.platform
        observe = platform.observe
        added = []

        def counted(table):
            before = len(platform.proactive_outcomes)
            outcome = observe(table)
            added.append(len(platform.proactive_outcomes) - before)
            return outcome

        platform.observe = counted
        trainings = tenant.trainings
        entry = orchestrator.run_epoch()
        assert entry["train_slots"] == [2, 0, 0, 0, 0, 0]
        assert tenant.trainings == trainings + 2
        assert tenant.last_trained_epoch == 4
        assert added == [8]

    def test_epoch_quotas_sum_to_the_global_cap(self):
        spec = _small_fleet(materialize_bytes=8192)
        orchestrator = FleetOrchestrator(spec)
        orchestrator.setup()
        while orchestrator.has_work():
            entry = orchestrator.run_epoch()
            assert (
                sum(entry["materialize_bytes"])
                == spec.materialize_bytes
            )

    def test_global_cap_bounds_fleet_storage_at_enforcement(self):
        spec = _small_fleet(materialize_bytes=4096)
        orchestrator = FleetOrchestrator(spec)
        orchestrator.setup()
        orchestrator.run_epoch()
        orchestrator.run_epoch()
        # Enforcement happens before ingest, so check right after the
        # quota pass of a fresh epoch: apply this epoch's quotas.
        signals = [
            t.signals(orchestrator.epoch)
            for t in orchestrator.tenants
        ]
        allocation = orchestrator.scheduler.allocate(signals)
        total = 0
        for tenant, quota in zip(
            orchestrator.tenants, allocation.materialize_bytes
        ):
            tenant.apply_quota(quota)
            storage = tenant.platform.data_manager.storage
            assert storage.materialized_bytes <= quota
            total += storage.materialized_bytes
        assert total <= spec.materialize_bytes

    def test_fleet_telemetry_vocabulary(self):
        telemetry = Telemetry()
        FleetOrchestrator(_small_fleet(), telemetry=telemetry).run()
        seen = {event.get("name") for event in telemetry.events}
        assert names.FLEET_EPOCH in seen
        assert names.FLEET_TENANT_CHUNK in seen
        assert names.FLEET_TRAINING in seen
        snapshot = telemetry.metrics.snapshot()
        assert names.FLEET_TRAININGS in snapshot["counters"]
        assert names.FLEET_BALANCE in snapshot["gauges"]


class TestRecovery:
    def test_recover_resumes_byte_identically(self, tmp_path):
        spec = _small_fleet()
        reference = FleetOrchestrator(spec).run()

        checkpoint = CheckpointConfig(
            directory=str(tmp_path / "ckpt"), cadence_chunks=2
        )
        interrupted = FleetOrchestrator(spec, checkpoint=checkpoint)
        interrupted.setup()
        for _ in range(3):
            interrupted.run_epoch()
        # Simulate the crash by abandoning `interrupted` here.
        recovered = FleetOrchestrator.recover(checkpoint)
        assert recovered.epoch == 2  # last cadence-aligned epoch
        result = recovered.run()
        assert result.digest == reference.digest
        assert result.schedule_log == reference.schedule_log

    def test_recover_with_telemetry_matches_uninterrupted(
        self, tmp_path
    ):
        spec = _small_fleet()
        reference = FleetOrchestrator(
            spec, telemetry=Telemetry()
        ).run()
        checkpoint = CheckpointConfig(
            directory=str(tmp_path / "ckpt"), cadence_chunks=2
        )
        interrupted = FleetOrchestrator(
            spec, telemetry=Telemetry(), checkpoint=checkpoint
        )
        interrupted.setup()
        for _ in range(2):
            interrupted.run_epoch()
        result = FleetOrchestrator.recover(
            checkpoint, telemetry=Telemetry()
        ).run()
        # Metrics ride the checkpoint, so final counters (and the
        # digest-relevant schedule) match the uninterrupted run.
        assert result.digest == reference.digest

    def test_recover_with_monitor_matches_uninterrupted(self, tmp_path):
        def monitored():
            telemetry = Telemetry()
            telemetry.attach_monitor(rules=fleet_rules())
            return telemetry

        def config(name):
            return CheckpointConfig(
                directory=str(tmp_path / name), cadence_chunks=2
            )

        spec = _small_fleet()
        # The reference checkpoints too: the written counter and the
        # checkpoint-written points are part of the monitored stream.
        reference = monitored()
        FleetOrchestrator(
            spec, telemetry=reference, checkpoint=config("reference")
        ).run()
        interrupted = FleetOrchestrator(
            spec, telemetry=monitored(), checkpoint=config("crashed")
        )
        interrupted.setup()
        for _ in range(3):
            interrupted.run_epoch()
        recovered = monitored()
        FleetOrchestrator.recover(
            config("crashed"), telemetry=recovered
        ).run()
        reference.monitor.flush()
        recovered.monitor.flush()
        health = recovered.monitor.health()
        assert health["windows_closed"] > 0
        assert health == reference.monitor.health()

    def test_fleet_checkpoints_count_themselves(self, tmp_path):
        telemetry = Telemetry()
        orchestrator = FleetOrchestrator(
            _small_fleet(),
            telemetry=telemetry,
            checkpoint=CheckpointConfig(
                directory=str(tmp_path / "ckpt"), cadence_chunks=2
            ),
        )
        orchestrator.run()
        written = telemetry.metrics.snapshot()["counters"][
            names.RELIABILITY_CHECKPOINTS_WRITTEN
        ]
        assert written == orchestrator.epoch // 2
        # Incremented before capture: the saved metrics include the
        # checkpoint's own write.
        saved = orchestrator.reliability.load("fleet")
        assert (
            saved.state["metrics"]["counters"][
                names.RELIABILITY_CHECKPOINTS_WRITTEN
            ]
            == written
        )

    def test_checkpoint_requires_store(self):
        orchestrator = FleetOrchestrator(_small_fleet())
        with pytest.raises(ReliabilityError, match="checkpoint"):
            orchestrator.checkpoint()

    def test_recover_rejects_non_fleet_checkpoints(self, tmp_path):
        from repro.reliability.checkpoint import (
            CheckpointStore,
            PlatformCheckpoint,
        )

        store = CheckpointStore(
            CheckpointConfig(directory=str(tmp_path / "ckpt"))
        )
        store.write(
            PlatformCheckpoint(
                cursor=1,
                approach="continuous",
                bundle=None,
                state={},
            )
        )
        with pytest.raises(ReliabilityError, match="fleet"):
            FleetOrchestrator.recover(store)


class TestAllRowsFilteredChunk:
    """A one-row taxi chunk the anomaly filter drops entirely: the
    tenant serves nothing for it but still trains on it."""

    SPEC = dict(chunks=12, rows=1)

    def _fleet(self):
        return make_fleet(4, seed=1, policy="fair_share", **self.SPEC)

    def test_empty_chunk_carries_the_error_forward(self):
        orchestrator = FleetOrchestrator(self._fleet())
        orchestrator.setup()
        taxi = next(
            t for t in orchestrator.tenants if t.spec.dataset == "taxi"
        )
        windows = []  # the drift window after each one-chunk epoch
        while orchestrator.has_work():
            orchestrator.run_epoch()
            windows.append(list(taxi.grant.window))
        history = taxi.prequential.history
        assert len(history) == taxi.cursor == len(windows) == 12
        # One chunk measured nothing: no rows counted, the cumulative
        # value repeated, and no chunk error entered the drift window.
        assert taxi.prequential.total_count == 11
        repeated = [i for i in range(1, 12) if history[i] == history[i - 1]]
        unchanged = [i for i in range(1, 12) if windows[i] == windows[i - 1]]
        assert len(repeated) == 1 and unchanged == repeated
        # ... and it was still ingested as training data.
        assert taxi.platform.data_manager.storage.num_raw == 12

    def test_replay_and_recovery_stay_byte_identical(self, tmp_path):
        reference = FleetOrchestrator(self._fleet()).run()
        assert FleetOrchestrator(self._fleet()).run().digest == (
            reference.digest
        )
        checkpoint = CheckpointConfig(
            directory=str(tmp_path / "ckpt"), cadence_chunks=2
        )
        interrupted = FleetOrchestrator(
            self._fleet(), checkpoint=checkpoint
        )
        interrupted.setup()
        for _ in range(9):
            interrupted.run_epoch()
        result = FleetOrchestrator.recover(checkpoint).run()
        assert result.digest == reference.digest

    def test_first_chunk_empty_reports_no_error(self):
        # Seed 28's taxi tenant is served nothing on its very first
        # chunk: the per-tenant point then carries error=None.
        telemetry = Telemetry()
        orchestrator = FleetOrchestrator(
            make_fleet(3, seed=28, policy="fair_share", chunks=3, rows=1),
            telemetry=telemetry,
        )
        orchestrator.setup()
        orchestrator.run_epoch()
        errors = {
            e["attrs"]["tenant"]: e["attrs"]["error"]
            for e in telemetry.events
            if e["name"] == names.FLEET_TENANT_CHUNK
        }
        assert errors["taxi-02"] is None
        assert errors["url-00"] is not None
        assert orchestrator.tenants[2].prequential.history == [0.0]


class TestValidationSurface:
    def test_single_tenant_fleet_runs(self):
        spec = FleetSpec(
            tenants=(
                TenantSpec(
                    name="solo",
                    dataset="taxi",
                    seed=1,
                    chunks=3,
                    rows=8,
                ),
            ),
            train_slots=1,
            materialize_bytes=4096,
        )
        result = FleetOrchestrator(spec).run()
        assert result.epochs == 3
        assert result.trainings[0] > 0

"""One fleet tenant: a full deployment platform, stepped cooperatively.

A :class:`TenantRuntime` owns everything one tenant needs — dataset
generator (seeded, with the spec's drift profile), pipeline + model +
optimizer, a :class:`~repro.core.platform.ContinuousDeploymentPlatform`
with no regular schedule whose one training rule is the tenant's
:class:`~repro.fleet.triggers.GrantTrigger`, a prequential tracker,
and optionally a per-tenant model registry. The orchestrator
interleaves tenants chunk by chunk: ``ingest_chunk`` runs the
prequential test-then-train step, in whose ``observe`` the slots the
fleet granted fire, and ``state_dict``/``load_state_dict`` ride the
fleet checkpoint so recovery is byte-identical.
"""

from __future__ import annotations

import warnings
from typing import Any, Dict, Iterator, Optional

from repro.core.config import ContinuousConfig, ScheduleConfig
from repro.core.platform import ContinuousDeploymentPlatform, TrainingRule
from repro.data.table import Table
from repro.datasets.drift import (
    AbruptDrift,
    DriftSchedule,
    GradualDrift,
    NoDrift,
)
from repro.datasets.taxi import (
    TAXI_FEATURE_COLUMNS,
    TaxiStreamGenerator,
    make_taxi_pipeline,
)
from repro.datasets.url import URLStreamGenerator, make_url_pipeline
from repro.exceptions import ConvergenceWarning
from repro.fleet.spec import TenantSpec
from repro.fleet.triggers import GrantTrigger, TenantSignals
from repro.ml.metrics import PrequentialTracker, errors_from_predictions
from repro.ml.models.linear_regression import LinearRegression
from repro.ml.models.svm import LinearSVM
from repro.ml.optim import make_optimizer
from repro.ml.regularizers import L2
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.persistence import DeploymentBundle
from repro.serving.registry import ModelRegistry

#: Hashed feature width for fleet URL tenants (smaller than the exp1
#: bench scenario: dozens of tenants must fit one process comfortably,
#: but wide enough that the initial fit actually learns the concept).
_URL_HASH_DIM = 256

#: SGD iterations spent per fleet-granted training slot. A single
#: proactive-training instance is one mini-batch iteration (§3.3), so
#: a fleet slot grants a short burst — enough to visibly re-track a
#: drifted concept while keeping the slot the unit of accounting.
_TRAIN_BURST = 4


def _drift_schedule(spec: TenantSpec) -> DriftSchedule:
    # Drift strong enough that a tenant's error visibly climbs between
    # retrainings — the fleet's allocation decisions must have
    # observable consequences for the policy comparison to resolve.
    if spec.drift == "gradual":
        return GradualDrift(0.05)
    if spec.drift == "abrupt":
        return AbruptDrift([max(spec.chunks // 2, 1)], 0.8)
    return NoDrift()


class TenantRuntime:
    """One tenant's live deployment inside the fleet."""

    def __init__(
        self,
        index: int,
        spec: TenantSpec,
        telemetry: Optional[Telemetry] = None,
        registry_root: Optional[str] = None,
        fit: bool = True,
    ) -> None:
        self.index = index
        self.spec = spec
        self.telemetry = (
            telemetry if telemetry is not None else NULL_TELEMETRY
        )
        self.registry: Optional[ModelRegistry] = None
        if registry_root is not None:
            self.registry = ModelRegistry(
                f"{registry_root}/{spec.name}", telemetry=self.telemetry
            )
        # Training-strategy tenants adapt *only* through fleet-granted
        # proactive trainings (so the scheduler's allocation decisions
        # are what shapes their quality); ``online``-strategy tenants
        # instead adapt through per-chunk SGD and opt out of slots.
        config = ContinuousConfig(
            sample_size_chunks=6,
            schedule=ScheduleConfig(kind="none"),
            sampler="time",
            half_life=max(spec.chunks // 8, 1),
            online_update=spec.strategy == "online",
        )
        if spec.dataset == "url":
            generator = URLStreamGenerator(
                num_chunks=spec.chunks,
                rows_per_chunk=spec.rows,
                base_features=200,
                new_features_per_chunk=2,
                drift=_drift_schedule(spec),
                seed=spec.seed,
            )
            pipeline = make_url_pipeline(hash_features=_URL_HASH_DIM)
            model = LinearSVM(_URL_HASH_DIM, regularizer=L2(1e-3))
            optimizer = make_optimizer("adam", learning_rate=0.05)
            self.metric = "classification"
            initial_rows, fit_iterations = 200, 160
        else:
            generator = TaxiStreamGenerator(
                num_chunks=spec.chunks,
                rows_per_chunk=spec.rows,
                seed=spec.seed,
            )
            pipeline = make_taxi_pipeline()
            model = LinearRegression(
                len(TAXI_FEATURE_COLUMNS), regularizer=L2(1e-4)
            )
            optimizer = make_optimizer("rmsprop", learning_rate=0.05)
            self.metric = "regression"
            # Taxi tenants onboard cold: a deliberately short initial
            # fit, with fleet-granted training doing the convergence
            # work. Their per-slot RMSE gain is large, near-linear,
            # and low-noise — the cleanest signal the policy
            # comparison has.
            initial_rows, fit_iterations = 120, 30
        self.grant = GrantTrigger()
        self.platform = ContinuousDeploymentPlatform(
            pipeline,
            model,
            optimizer,
            config=config,
            seed=spec.seed,
            telemetry=self.telemetry,
            registry=self.registry,
            lineage_scope=spec.name,
            rules=[TrainingRule(self.grant, repeats=_TRAIN_BURST)],
        )
        self.prequential = PrequentialTracker.for_metric(self.metric)
        self._stream: Iterator[Table] = iter(generator.stream())
        self.cursor = 0
        self.active = True
        self.new_rows = 0
        self.last_trained_epoch = -1
        self.trainings = 0
        if fit:
            # Fleet tenants run deliberately short initial fits (the
            # online + proactive phases do the real work); convergence
            # warnings at this scale are expected noise.
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ConvergenceWarning)
                self.platform.initial_fit(
                    generator.initial_data(initial_rows),
                    max_iterations=fit_iterations,
                    tolerance=1e-4,
                    seed=spec.seed,
                )

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.spec.name

    def total_cost(self) -> float:
        """This tenant's engine clock (its share of the fleet cost)."""
        return self.platform.engine.total_cost()

    # ------------------------------------------------------------------
    def ingest_chunk(self, epoch: int, slots: int = 0) -> None:
        """One prequential test-then-train step on the next chunk, in
        whose ``observe`` the ``slots`` granted this epoch fire.

        A chunk served empty (every row filtered) still trains but
        measures nothing: the cumulative error carries forward and the
        drift window does not see it.
        """
        table = next(self._stream)
        predictions, labels = self.platform.predict(table)
        errors = errors_from_predictions(
            self.prequential.kind, predictions, labels
        )
        self.prequential.score_errors(errors)
        self.platform.record_errors(errors)
        self.grant.arm(slots)
        self.platform.observe(table)
        self.cursor += 1
        self.new_rows += table.num_rows
        if slots:
            self.trainings += slots
            self.last_trained_epoch = epoch
            self.new_rows = 0
        # Deactivate eagerly so the scheduler never allocates an
        # epoch of dead streams.
        self.active = self.cursor < self.spec.chunks

    def signals(self, epoch: int) -> TenantSignals:
        return TenantSignals(
            tenant=self.index,
            new_rows=self.new_rows,
            drift_score=self.grant.drift_score(),
            staleness_epochs=epoch - self.last_trained_epoch,
            weight=self.spec.weight,
            strategy=self.spec.strategy,
            active=self.active,
        )

    def apply_quota(self, quota_bytes: int) -> Dict[str, int]:
        """Enforce this epoch's materialization quota.

        Returns the overdraft (bytes held beyond the fresh quota at
        enforcement time) and how many payloads were evicted for it.
        """
        storage = self.platform.data_manager.storage
        overdraft = max(0, storage.materialized_bytes - quota_bytes)
        evicted = storage.set_byte_budget(quota_bytes)
        return {"overdraft": overdraft, "evicted": evicted}

    # ------------------------------------------------------------------
    # Fleet checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Everything this tenant mutates, for the fleet checkpoint.

        Storage payloads ride inline (fleet tenants are small by
        construction); the artifact bundle is pickled by the
        checkpoint envelope like any platform checkpoint.
        """
        storage = self.platform.data_manager.storage
        return {
            "bundle": DeploymentBundle(*self.platform.manager.artifacts),
            "platform": self.platform.state_dict(),
            "storage": {
                "raw": [
                    storage.peek_raw(t) for t in storage.raw_timestamps
                ],
                "features": [
                    storage.peek_features(t)
                    for t in storage.feature_timestamps
                ],
                "stats": storage.manifest()["stats"],
            },
            "prequential": self.prequential.state_dict(),
            "cursor": self.cursor,
            "active": self.active,
            "new_rows": self.new_rows,
            "last_trained_epoch": self.last_trained_epoch,
            "trainings": self.trainings,
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Rebuild from :meth:`state_dict` (byte-identical resume).

        The stream iterator is regenerated by the constructor and
        fast-forwarded to the saved cursor here; generators are
        deterministic, so the skipped chunks are exactly the ones the
        crashed run consumed.
        """
        bundle: DeploymentBundle = state["bundle"]
        self.platform.install_artifacts(
            bundle.pipeline, bundle.model, bundle.optimizer
        )
        storage = self.platform.data_manager.storage
        storage.restore(
            state["storage"]["raw"],
            state["storage"]["features"],
            state["storage"]["stats"],
        )
        self.platform.load_state_dict(state["platform"])
        self.prequential.load_state_dict(state["prequential"])
        self.cursor = int(state["cursor"])
        self.active = bool(state["active"])
        self.new_rows = int(state["new_rows"])
        self.last_trained_epoch = int(state["last_trained_epoch"])
        self.trainings = int(state["trainings"])
        for _ in range(self.cursor):
            next(self._stream)

    def __repr__(self) -> str:
        return (
            f"TenantRuntime({self.name!r}, cursor={self.cursor}, "
            f"trainings={self.trainings})"
        )

"""Rollout controller end-to-end: stage → promote/reject → rollback.

The acceptance scenarios from the serving-layer design:

* a clearly better candidate staged as a canary is auto-promoted;
* a forced quality regression on the canary triggers an automatic
  revert, the registry's live version equals the pre-promotion
  version, and the transition appears in the obs trace.

Training setups mirror ``examples/serving_rollout.py``: a bootstrap
model sees 2 chunks, a good candidate 14, and a broken candidate is a
sign-flipped model (a diverged training run) — separations far larger
than the stream's noise, so every verdict is deterministic.
"""

import numpy as np
import pytest

from repro.exceptions import ServingError
from repro.obs import Telemetry
from repro.serving import (
    GateConfig,
    RolloutController,
    ServingEndpoint,
)

from tests.serving.conftest import SEED

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.exceptions.ConvergenceWarning"
)

GATE = GateConfig(
    min_samples=60,
    promote_after=2,
    promote_margin=0.0,
    rollback_after=1,
    rollback_margin=0.2,
    drift_window=40,
    drift_ratio=1.0,
)
FRACTION = 0.4


def build(url_world, telemetry=None):
    """Registry with a lightly-trained live version + controller."""
    registry = url_world.registry_factory(telemetry=telemetry)
    initial = registry.register(
        *url_world.make_parts(train_chunks=range(2))
    )
    registry.promote(initial.version, reason="initial")
    endpoint = ServingEndpoint(registry, seed=SEED, telemetry=telemetry)
    controller = RolloutController(
        registry,
        endpoint,
        metric="classification",
        config=GATE,
        telemetry=telemetry,
    )
    return registry, endpoint, controller, initial


def good_candidate(url_world, registry):
    """A candidate trained on 7x the live version's data."""
    return registry.register(
        *url_world.make_parts(train_chunks=range(14)),
        chunks_observed=14,
    )


def broken_candidate(url_world, registry):
    """A diverged training run: decision direction inverted."""
    pipeline, model, optimizer = url_world.make_parts(
        train_chunks=range(3)
    )
    model.weights *= -1.0
    return registry.register(pipeline, model, optimizer)


def serve(url_world, endpoint, controller, chunks):
    """Serve chunk indices; return the non-continue actions."""
    actions = []
    for index in chunks:
        served = endpoint.predict(
            url_world.generator.chunk(index), chunk_index=index
        )
        action = controller.observe(served)
        if action != "continue":
            actions.append(action)
    return actions


class TestPromotion:
    def test_better_candidate_is_promoted(self, url_world):
        registry, endpoint, controller, initial = build(url_world)
        good = good_candidate(url_world, registry)
        controller.stage(good.version, mode="canary", fraction=FRACTION)
        assert controller.state == "canary"
        actions = serve(url_world, endpoint, controller, range(14, 30))
        assert actions == ["promote"]
        assert registry.live_version == good.version
        assert endpoint.primary_version == good.version
        assert controller.state == "monitoring"
        assert registry.get(initial.version).status == "retired"


class TestRejection:
    def test_regressing_canary_is_rejected_live_unchanged(
        self, url_world
    ):
        """Pre-promotion regression: the candidate is rejected and the
        live version never changes."""
        telemetry = Telemetry()
        registry, endpoint, controller, initial = build(
            url_world, telemetry=telemetry
        )
        bad = broken_candidate(url_world, registry)
        controller.stage(bad.version, mode="canary", fraction=FRACTION)
        actions = serve(url_world, endpoint, controller, range(14, 30))
        assert "reject" in actions
        assert "promote" not in actions
        assert registry.live_version == initial.version
        assert endpoint.primary_version == initial.version
        assert endpoint.mode == "solo"
        assert registry.get(bad.version).status == "rejected"
        assert controller.state == "idle"
        names = [event["name"] for event in telemetry.events]
        assert "rollout.reject" in names
        assert "registry.reject" in names


class TestRollback:
    def test_forced_regression_triggers_automatic_rollback(
        self, url_world
    ):
        """Acceptance: promote a candidate, then force a quality
        regression — the controller must roll the registry back to
        the pre-promotion live version and the transition must land
        in the obs trace."""
        telemetry = Telemetry()
        registry, endpoint, controller, initial = build(
            url_world, telemetry=telemetry
        )
        pre_promotion_live = registry.live_version

        good = good_candidate(url_world, registry)
        controller.stage(good.version, mode="canary", fraction=FRACTION)
        actions = serve(url_world, endpoint, controller, range(14, 30))
        assert actions == ["promote"]
        assert registry.live_version == good.version

        # Force the regression: the live model degenerates in place.
        endpoint.primary_bundle.model.weights *= -1.0
        actions = serve(url_world, endpoint, controller, range(30, 50))
        assert "rollback" in actions

        # The registry reverted to the pre-promotion version...
        assert registry.live_version == pre_promotion_live
        assert endpoint.primary_version == pre_promotion_live
        assert registry.get(good.version).status == "rolled_back"
        assert controller.state == "idle"
        # ...and the transition is in the obs trace, with counters.
        names = [event["name"] for event in telemetry.events]
        assert "rollout.promote" in names
        assert "rollout.rollback" in names
        assert "registry.rollback" in names
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["rollout.rollback"] == 1
        # The restored model serves from the pristine on-disk bundle.
        served = endpoint.predict(
            url_world.generator.chunk(50), chunk_index=50
        )
        restored = registry.load(pre_promotion_live)
        features = restored.pipeline.transform(
            url_world.generator.chunk(50)
        )
        assert np.array_equal(
            served.predictions, restored.model.predict(features.matrix)
        )


class TestStateMachine:
    def test_stage_requires_candidate_status(self, url_world):
        registry, endpoint, controller, initial = build(url_world)
        with pytest.raises(ServingError, match="candidates"):
            controller.stage(initial.version)

    def test_no_concurrent_rollouts(self, url_world):
        registry, endpoint, controller, __ = build(url_world)
        first = registry.register(*url_world.make_parts())
        second = registry.register(*url_world.make_parts())
        controller.stage(first.version, mode="shadow")
        with pytest.raises(ServingError, match="in progress"):
            controller.stage(second.version, mode="shadow")

    def test_staging_from_monitoring_drops_the_watch(self, url_world):
        registry, endpoint, controller, __ = build(url_world)
        good = good_candidate(url_world, registry)
        controller.stage(good.version, mode="canary", fraction=FRACTION)
        serve(url_world, endpoint, controller, range(14, 30))
        assert controller.state == "monitoring"
        follow_up = registry.register(*url_world.make_parts())
        controller.stage(follow_up.version, mode="shadow")
        assert controller.state == "shadow"
        assert controller.monitor is None

    def test_mismatched_registry_rejected(self, url_world):
        registry = url_world.registry_factory("one")
        other = url_world.registry_factory("two")
        info = registry.register(*url_world.make_parts())
        registry.promote(info.version)
        endpoint = ServingEndpoint(registry, seed=5)
        with pytest.raises(ServingError, match="different registry"):
            RolloutController(other, endpoint)

    def test_observe_while_idle_is_continue(self, url_world):
        registry, endpoint, controller, __ = build(url_world)
        served = endpoint.predict(
            url_world.generator.chunk(0), chunk_index=0
        )
        assert controller.observe(served) == "continue"
        assert controller.log == []

    def test_log_records_every_transition(self, url_world):
        registry, endpoint, controller, __ = build(url_world)
        good = good_candidate(url_world, registry)
        controller.stage(good.version, mode="canary", fraction=FRACTION)
        serve(url_world, endpoint, controller, range(14, 30))
        assert [entry["action"] for entry in controller.log] == [
            "stage", "promote",
        ]
        assert controller.log[0]["version"] == good.version

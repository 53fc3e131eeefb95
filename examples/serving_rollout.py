"""Shadow → canary → promote → rollback: the serving layer end-to-end.

The continuous platform keeps *producing* models; this example shows
how the serving layer decides which ones get to *serve*. It walks one
registry through the full lifecycle:

1. bootstrap — train an initial model, register it, promote it live;
2. a good candidate (trained further) is staged as a canary; the
   quality gate sees a sustained win and auto-promotes it;
3. a corrupted candidate (a broken training run) is staged next; the
   gate catches the regression on canary traffic and rejects it —
   the live version never changes;
4. a regression *after* promotion (the live model is damaged in
   place, standing in for concept failure) trips the baseline
   monitor, and the registry rolls back to the previous version.

Every transition lands in the obs trace; the final registry listing
shows the full, auditable lineage.

Run:  python examples/serving_rollout.py
"""

from __future__ import annotations

import tempfile
import warnings

import numpy as np

from repro import Adam, L2, LinearSVM, Telemetry, URLStreamGenerator
from repro.datasets.url import make_url_pipeline
from repro.ml.sgd import SGDTrainer
from repro.serving import (
    GateConfig,
    ModelRegistry,
    RolloutController,
    ServingEndpoint,
)

NUM_CHUNKS = 60
HASH_DIM = 256
SEED = 11


def make_generator() -> URLStreamGenerator:
    return URLStreamGenerator(
        num_chunks=NUM_CHUNKS, rows_per_chunk=50, seed=SEED
    )


def train_on(pipeline, model, optimizer, generator, chunks) -> None:
    trainer = SGDTrainer(model, optimizer)
    for index in chunks:
        features = pipeline.update_transform(
            generator.chunk(index)
        )
        for _ in range(20):
            trainer.step(features.matrix, features.labels)


def serve_until_settled(endpoint, controller, generator, start, stop):
    """Serve chunks [start, stop); return the controller actions."""
    actions = []
    for index in range(start, stop):
        served = endpoint.predict(
            generator.chunk(index), chunk_index=index
        )
        action = controller.observe(served)
        if action != "continue":
            actions.append((index, action))
    return actions


def main() -> None:
    warnings.simplefilter("ignore")
    generator = make_generator()
    telemetry = Telemetry()

    with tempfile.TemporaryDirectory() as root:
        registry = ModelRegistry(root, telemetry=telemetry)

        # 1. Bootstrap: a lightly-trained initial model goes live.
        pipeline = make_url_pipeline(HASH_DIM)
        model = LinearSVM(HASH_DIM, regularizer=L2(1e-3))
        optimizer = Adam(0.05)
        train_on(pipeline, model, optimizer, generator, range(2))
        v1 = registry.register(pipeline, model, optimizer)
        registry.promote(v1.version, reason="initial deployment")
        print(f"bootstrap: {v1.version} is live")

        endpoint = ServingEndpoint(
            registry, seed=SEED, telemetry=telemetry
        )
        controller = RolloutController(
            registry,
            endpoint,
            metric="classification",
            config=GateConfig(
                min_samples=60,
                promote_after=2,
                rollback_after=1,
                rollback_margin=0.2,
                drift_window=40,
                drift_ratio=1.0,
            ),
            telemetry=telemetry,
        )

        # 2. A corrupted candidate: the gate must reject it while the
        #    canary fraction shields most of the traffic.
        broken_pipeline = make_url_pipeline(HASH_DIM)
        broken_model = LinearSVM(HASH_DIM, regularizer=L2(1e-3))
        broken_optimizer = Adam(0.05)
        train_on(
            broken_pipeline, broken_model, broken_optimizer,
            generator, range(3),
        )
        broken_model.weights *= -1.0  # a diverged training run
        v2 = registry.register(
            broken_pipeline, broken_model, broken_optimizer
        )
        controller.stage(v2.version, mode="canary", fraction=0.4)
        actions = serve_until_settled(
            endpoint, controller, generator, 14, 26
        )
        print(f"bad candidate  {v2.version}: {actions} "
              f"(live={registry.live_version})")

        # 3. A good candidate: the same lineage, trained much
        #    further; the gate sees a sustained win and promotes.
        train_on(pipeline, model, optimizer, generator, range(2, 14))
        v3 = registry.register(
            pipeline, model, optimizer, chunks_observed=14
        )
        controller.stage(v3.version, mode="canary", fraction=0.4)
        actions = serve_until_settled(
            endpoint, controller, generator, 26, 40
        )
        print(f"good candidate {v3.version}: {actions} "
              f"(live={registry.live_version})")

        # 4. Post-promotion regression: damage the live model in
        #    place (standing in for concept failure) — the baseline
        #    monitor catches it and the registry rolls back.
        live_before = registry.live_version
        endpoint.primary_bundle.model.weights *= -1.0
        actions = serve_until_settled(
            endpoint, controller, generator, 40, 60
        )
        print(f"live regression: {actions} "
              f"(live={registry.live_version}, was {live_before})")

        # The audit trail.
        print("\nregistry lineage:")
        for info in registry.list_versions():
            print(
                f"  {info.version}  {info.status:<12} "
                f"parent={info.parent or '-':<6} "
                f"chunks={info.chunks_observed:<4} "
                f"metrics={info.metrics}"
            )
        rollout_events = [
            event["name"]
            for event in telemetry.events
            if str(event.get("name", "")).startswith(
                ("rollout.", "registry.")
            )
        ]
        print(f"\nobs transitions: {rollout_events}")
        counts = {
            action: int(np.sum([
                1 for entry in controller.log
                if entry["action"] == action
            ]))
            for action in ("stage", "promote", "reject", "rollback")
        }
        print(f"controller log: {counts}")


if __name__ == "__main__":
    main()

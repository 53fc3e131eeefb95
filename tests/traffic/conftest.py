"""Shared fixtures: a tiny URL serving world for traffic tests.

Small on purpose — two 40-row chunks, a 64-dim hash space, a handful
of SGD steps — because these tests exercise the *traffic* machinery
(queueing, batching, determinism), not model quality.
"""

from dataclasses import dataclass
from typing import Callable

import pytest

from repro.data.table import Table
from repro.datasets.url import URLStreamGenerator, make_url_pipeline
from repro.ml.models import LinearSVM
from repro.ml.optim import Adam
from repro.ml.regularizers import L2
from repro.ml.sgd import SGDTrainer
from repro.serving import ModelRegistry, ServingEndpoint

HASH_DIM = 64
ROWS = 40
SEED = 23


@dataclass
class TrafficWorld:
    """A registry with a live version plus a replay pool."""

    registry: ModelRegistry
    pool: Table
    live_version: str
    candidate_version: str
    make_endpoint: Callable


@pytest.fixture
def traffic_world(tmp_path):
    generator = URLStreamGenerator(
        num_chunks=4, rows_per_chunk=ROWS, seed=SEED
    )

    def make_parts(train_chunks, steps=10):
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

    registry = ModelRegistry(tmp_path / "registry")
    live = registry.register(*make_parts(range(1)))
    registry.promote(live.version, reason="initial")
    candidate = registry.register(*make_parts(range(2)))
    pool = Table.concat([generator.chunk(2), generator.chunk(3)])

    def make_endpoint(**kwargs):
        kwargs.setdefault("seed", SEED)
        return ServingEndpoint(registry, **kwargs)

    return TrafficWorld(
        registry=registry,
        pool=pool,
        live_version=live.version,
        candidate_version=candidate.version,
        make_endpoint=make_endpoint,
    )

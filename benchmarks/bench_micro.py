"""Micro-benchmarks for the hot paths of the platform.

These are conventional pytest-benchmark timings (many rounds) for the
operations that dominate a deployment: pipeline transforms, feature
hashing, SGD steps (dense and sparse), sampling, storage bookkeeping,
and a checkpoint write.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pipeline_manager import PipelineManager
from repro.data.chunk import FeatureChunk, RawChunk
from repro.data.manager import DataManager
from repro.data.sampling import (
    TimeBasedSampler,
    UniformSampler,
    WindowBasedSampler,
)
from repro.data.storage import ChunkStorage
from repro.datasets.taxi import TaxiStreamGenerator, make_taxi_pipeline
from repro.datasets.url import URLStreamGenerator, make_url_pipeline
from repro.execution.engine import LocalExecutionEngine
from repro.ml.models import LinearRegression, LinearSVM
from repro.ml.optim import Adam, RMSProp
from repro.ml.sgd import SGDTrainer
from repro.pipeline.component import union_features
from repro.persistence import DeploymentBundle
from repro.pipeline.pipeline import PrefixMemo
from repro.reliability import (
    CheckpointConfig,
    CheckpointStore,
    PlatformCheckpoint,
)


@pytest.fixture(scope="module")
def url_chunk():
    return URLStreamGenerator(
        num_chunks=2, rows_per_chunk=100, seed=0
    ).chunk(0)


@pytest.fixture(scope="module")
def taxi_chunk():
    return TaxiStreamGenerator(
        num_chunks=2, rows_per_chunk=200, seed=0
    ).chunk(0)


class TestPipelineThroughput:
    def test_url_online_pass(self, benchmark, url_chunk):
        pipeline = make_url_pipeline(hash_features=1024)
        benchmark(pipeline.update_transform, url_chunk)

    def test_url_transform_only(self, benchmark, url_chunk):
        pipeline = make_url_pipeline(hash_features=1024)
        pipeline.update_transform(url_chunk)
        benchmark(pipeline.transform, url_chunk)

    def test_url_reread_transform(self, benchmark, url_chunk):
        """What a sampled, evicted chunk costs to rebuild: its parse is
        kept beside the raw chunk (a filled ``PrefixMemo``), so only
        the statistics are read and the hasher's kept plan applied."""
        pipeline = make_url_pipeline(hash_features=1024)
        pipeline.update_transform(url_chunk)
        memo = PrefixMemo()
        pipeline.transform(url_chunk, memo=memo)
        benchmark(pipeline.transform, url_chunk, memo=memo)

    def test_taxi_online_pass(self, benchmark, taxi_chunk):
        pipeline = make_taxi_pipeline()
        benchmark(pipeline.update_transform, taxi_chunk)

    def test_taxi_transform_only(self, benchmark, taxi_chunk):
        pipeline = make_taxi_pipeline()
        pipeline.update_transform(taxi_chunk)
        benchmark(pipeline.transform, taxi_chunk)


class TestHasherApply:
    """One hasher apply on a bench-shaped URL chunk (50 rows, 1,024
    buckets), its input the scaler's output. A plan's first apply
    plans and has scipy check the structure (``sp.csr_matrix``); a kept
    plan's later apply — the online step's second pass, a
    re-materialization — copies a checked shell. ``us_per_apply`` is
    the mean."""

    @pytest.fixture(scope="class")
    def setup(self):
        chunk = URLStreamGenerator(
            num_chunks=2, rows_per_chunk=50, seed=7
        ).chunk(0)
        pipeline = make_url_pipeline(hash_features=1024)
        *prefix, hasher = pipeline
        rows = chunk
        for component in prefix:
            component.update(rows)
            rows = component.transform(rows)
        hasher.transform(rows)  # the memo of bucket and sign is warm
        return hasher, rows

    @staticmethod
    def report(benchmark):
        benchmark.extra_info["us_per_apply"] = benchmark.stats.stats.mean * 1e6

    def test_first_apply(self, benchmark, setup):
        hasher, rows = setup

        def new_plan():
            # New frozen index arrays: a plan the hasher has not kept.
            indptr, indices = rows.indptr.copy(), rows.indices.copy()
            indptr.flags.writeable = indices.flags.writeable = False
            return (rows._replace(indptr=indptr, indices=indices),), {}

        benchmark.pedantic(
            hasher.transform, setup=new_plan, rounds=2_000, iterations=1
        )
        self.report(benchmark)

    def test_kept_plan_apply(self, benchmark, setup):
        hasher, rows = setup
        hasher.transform(rows)
        benchmark(hasher.transform, rows)
        self.report(benchmark)


def online_manager(pipeline, model, optimizer) -> PipelineManager:
    return PipelineManager(
        pipeline=pipeline,
        model=model,
        optimizer=optimizer,
        data_manager=DataManager(storage=ChunkStorage(), seed=0),
        engine=LocalExecutionEngine(),
    )


class TestTrainingThroughput:
    def test_sparse_sgd_step(self, benchmark, url_chunk):
        pipeline = make_url_pipeline(hash_features=1024)
        features = pipeline.update_transform(url_chunk)
        trainer = SGDTrainer(LinearSVM(1024), Adam(0.05))
        benchmark(trainer.step, features.matrix, features.labels)

    def test_dense_sgd_step(self, benchmark, taxi_chunk):
        pipeline = make_taxi_pipeline()
        features = pipeline.update_transform(taxi_chunk)
        trainer = SGDTrainer(
            LinearRegression(features.num_features), RMSProp(0.05)
        )
        benchmark(trainer.step, features.matrix, features.labels)

    # The online update as both scenarios run it: the chunk consumed
    # one row a step (`online_batch_rows=1`), engine and cost charges
    # included. Divide by the chunk's rows (100 / 200) for the per-row
    # cost that `benchmarks/e2e` attributes to `core.online_step`.
    def test_sparse_online_rows(self, benchmark, url_chunk):
        pipeline = make_url_pipeline(hash_features=1024)
        features = pipeline.update_transform(url_chunk)
        manager = online_manager(pipeline, LinearSVM(1024), Adam(0.05))
        benchmark(manager.online_step, features, batch_rows=1)

    def test_dense_online_rows(self, benchmark, taxi_chunk):
        pipeline = make_taxi_pipeline()
        features = pipeline.update_transform(taxi_chunk)
        manager = online_manager(
            pipeline, LinearRegression(features.num_features), RMSProp(0.05)
        )
        benchmark(manager.online_step, features, batch_rows=1)

    def test_union_80_url_chunks(self, benchmark):
        """The proactive step's ``context.union``: a sample of 80 hashed
        URL chunks (50 rows each) stacked into one CSR block."""
        generator = URLStreamGenerator(
            num_chunks=80, rows_per_chunk=50, seed=0
        )
        pipeline = make_url_pipeline(hash_features=1024)
        parts = [
            pipeline.update_transform(generator.chunk(i)) for i in range(80)
        ]
        benchmark(union_features, parts)

    def test_sparse_prediction(self, benchmark, url_chunk):
        pipeline = make_url_pipeline(hash_features=1024)
        features = pipeline.update_transform(url_chunk)
        model = LinearSVM(1024)
        benchmark(model.predict, features.matrix)


class TestSamplingThroughput:
    POPULATION = list(range(12_000))

    @pytest.mark.parametrize(
        "sampler",
        [
            UniformSampler(),
            WindowBasedSampler(window_size=6_000),
            TimeBasedSampler(half_life=3_000),
        ],
        ids=["uniform", "window", "time"],
    )
    def test_sample_100_of_12000(self, benchmark, sampler):
        rng = np.random.default_rng(0)
        benchmark(sampler.sample, self.POPULATION, 100, rng)


class TestStorageThroughput:
    def test_insert_with_eviction(self, benchmark, bench_record):
        def insert_run():
            storage = ChunkStorage(max_materialized=64)
            for t in range(256):
                storage.put_features(
                    FeatureChunk(
                        timestamp=t,
                        raw_reference=t,
                        features=np.ones((16, 8)),
                        labels=np.ones(16),
                    )
                )
            return storage

        storage = benchmark(insert_run)
        assert storage.num_materialized == 64

        bench_record(
            "micro_storage_eviction",
            count={"materialized": storage.num_materialized},
            seed=0,
            params={"inserts": 256, "max_materialized": 64},
        )


class TestCheckpointWrite:
    """Sixty checkpoints of a ``url_stack``-shaped run: 600 URL chunks of
    50 rows (raw and features stored, the store unbounded), cadence 10,
    keep 3, an append-only log of 20 entries a chunk, and the run's
    bundle in every envelope. One round is the sixty writes into an
    empty directory; ``ms_per_write`` is its mean."""

    CHUNKS, CADENCE = 600, 10

    @pytest.fixture(scope="class")
    def history(self):
        """What the store holds after each chunk, and the bundle."""
        stream = URLStreamGenerator(
            num_chunks=self.CHUNKS, rows_per_chunk=50, seed=7
        )
        pipeline = make_url_pipeline(hash_features=1024)
        chunks = []
        for timestamp in range(self.CHUNKS):
            table = stream.chunk(timestamp)
            features = pipeline.update_transform(table)
            chunks.append(
                (
                    RawChunk(timestamp=timestamp, table=table),
                    FeatureChunk(
                        timestamp=timestamp,
                        raw_reference=timestamp,
                        features=features.matrix,
                        labels=features.labels,
                    ),
                )
            )
        bundle = DeploymentBundle(
            pipeline, LinearSVM(num_features=1024), Adam(0.01)
        )
        return chunks, bundle

    def test_sixty_writes(self, benchmark, history, tmp_path):
        chunks, bundle = history
        rounds = iter(range(1_000))

        def write_all():
            store = CheckpointStore(
                CheckpointConfig(
                    tmp_path / str(next(rounds)),
                    cadence_chunks=self.CADENCE,
                    keep=3,
                )
            )
            storage, log = ChunkStorage(), []
            for raw, chunk in chunks:
                storage.put_raw(raw)
                storage.put_features(chunk)
                log.extend({"chunk": raw.timestamp, "n": n} for n in range(20))
                cursor = raw.timestamp + 1
                if cursor % self.CADENCE == 0:
                    store.write(
                        PlatformCheckpoint(cursor, "continuous", bundle),
                        storage=storage,
                        logs={"lineage": log},
                    )
            return store

        store = benchmark.pedantic(write_all, rounds=3, iterations=1)
        writes = self.CHUNKS // self.CADENCE
        benchmark.extra_info["ms_per_write"] = (
            benchmark.stats.stats.mean * 1e3 / writes
        )
        assert len(store.checkpoints()) == 3

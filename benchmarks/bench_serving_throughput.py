"""Micro-batched serving throughput vs request-at-a-time.

Batched serving (``predict_requests``) exists because serving one
request per call pays the full transform + kernel dispatch overhead
per request (§4.5's deployed-pipeline setting). This benchmark
prices that directly on real machinery — an open-loop arrival stream
sampled from a replay pool, served twice by fresh endpoints:

1. request-at-a-time: one ``predict`` call per request;
2. micro-batched: the same requests grouped into fixed-size batches
   through ``predict_requests``.

It asserts the two prediction streams are *byte-identical* (the
contract that makes batching legal at all), that a duplicate batched
run reproduces the stream exactly, and that batching is not slower.

The deterministic counts go through ``bench_record``
(``BENCH_serving_throughput.json``: appended by ``make bench-record``,
exact-match gated by ``make bench-check``) and into
``results/serving_throughput.txt``; the two wall times stay in this
process, in the ``batched < row-at-a-time`` assert and on stdout.
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.conftest import BENCH_SCALE, run_once
from repro.data.table import Table
from repro.datasets.url import URLStreamGenerator, make_url_pipeline
from repro.ml.models import LinearSVM
from repro.ml.optim import Adam
from repro.ml.regularizers import L2
from repro.ml.sgd import SGDTrainer
from repro.serving import ModelRegistry, ServingEndpoint
from repro.traffic import OpenLoopGenerator, TrafficPattern

SEED = 17
HASH_DIM = 256
MAX_BATCH_SIZE = 8

#: Arrival-stream horizon per scale (requests scale with it).
_HORIZONS = {"test": 3.0, "bench": 30.0}


def _build_world(tmp_path):
    generator = URLStreamGenerator(
        num_chunks=4, rows_per_chunk=50, seed=SEED
    )
    pipeline = make_url_pipeline(hash_features=HASH_DIM)
    model = LinearSVM(HASH_DIM, regularizer=L2(1e-3))
    optimizer = Adam(0.05)
    trainer = SGDTrainer(model, optimizer)
    for index in range(2):
        features = pipeline.update_transform(
            generator.chunk(index)
        )
        for __ in range(20):
            trainer.step(features.matrix, features.labels)
    registry = ModelRegistry(tmp_path / "registry")
    info = registry.register(pipeline, model, optimizer)
    registry.promote(info.version, reason="bench")
    pool = Table.concat([generator.chunk(2), generator.chunk(3)])
    return registry, pool


def _request_tables(pool):
    horizon = _HORIZONS.get(BENCH_SCALE, _HORIZONS["bench"])
    arrivals = OpenLoopGenerator(
        pattern=TrafficPattern(base_rate=60.0),
        num_users=10_000,
        pool_rows=pool.num_rows,
        rows_per_request=(2, 6),
        seed=SEED,
    ).generate(horizon)
    return [
        pool.take(arrivals.request_rows(i))
        for i in range(arrivals.num_requests)
    ]


def _serve_row_at_a_time(registry, tables):
    endpoint = ServingEndpoint(registry, seed=SEED)
    streams = []
    started = time.perf_counter()
    for key, table in enumerate(tables):
        streams.append(endpoint.predict(table, chunk_index=key).predictions)
    wall = time.perf_counter() - started
    return np.concatenate(streams), wall


def _serve_batched(registry, tables):
    endpoint = ServingEndpoint(registry, seed=SEED)
    streams = []
    started = time.perf_counter()
    for start in range(0, len(tables), MAX_BATCH_SIZE):
        group = tables[start:start + MAX_BATCH_SIZE]
        keys = list(range(start, start + len(group)))
        streams.append(
            endpoint.predict_requests(group, keys=keys).predictions
        )
    wall = time.perf_counter() - started
    return np.concatenate(streams), wall


def test_serving_throughput(
    tmp_path, benchmark, report, bench_record
):
    registry, pool = _build_world(tmp_path)
    tables = _request_tables(pool)
    total_rows = sum(t.num_rows for t in tables)

    row_stream, row_wall = _serve_row_at_a_time(registry, tables)
    batched_stream, batched_wall = run_once(
        benchmark, lambda: _serve_batched(registry, tables)
    )
    repeat_stream, __ = _serve_batched(registry, tables)

    batches = -(-len(tables) // MAX_BATCH_SIZE)
    speedup = row_wall / batched_wall if batched_wall > 0 else 0.0
    report(
        "serving_throughput",
        "\n".join(
            [
                "micro-batched serving throughput",
                f"requests: {len(tables)} ({total_rows} rows), "
                f"max_batch_size={MAX_BATCH_SIZE} -> {batches} batches",
                "streams byte-identical: "
                f"{np.array_equal(row_stream, batched_stream)}",
            ]
        ),
        wall="\n".join(
            [
                f"request-at-a-time: {row_wall * 1e3:.1f} ms "
                f"({total_rows / row_wall:.0f} rows/s)",
                f"micro-batched:     {batched_wall * 1e3:.1f} ms "
                f"({total_rows / batched_wall:.0f} rows/s)",
                f"speedup: {speedup:.2f}x",
            ]
        ),
    )

    # The contract, not a tolerance: batching must not change a byte,
    # and a duplicate run must reproduce the stream exactly.
    assert batched_stream.tobytes() == row_stream.tobytes()
    assert np.array_equal(batched_stream, repeat_stream)
    # Amortization must actually pay: batched serving is not slower.
    assert batched_wall < row_wall

    bench_record(
        "serving_throughput",
        count={
            "requests": len(tables),
            "rows": total_rows,
            "batches": batches,
        },
        seed=SEED,
        params={
            "scale": BENCH_SCALE,
            "hash_dim": HASH_DIM,
            "max_batch_size": MAX_BATCH_SIZE,
        },
    )

"""Generated property: batched serving is request-at-a-time serving.

Each seed draws 1-8 requests of 1-12 rows, each a row subset of one
of one or two URL chunks, a routing key per request (from a range
small enough to repeat keys, or a wide one), an endpoint seed and a
canary fraction. In every rollout mode (``solo``, ``shadow``,
``canary``), ``ServingEndpoint.predict_requests`` on one fresh
endpoint must give per-side prediction streams byte-equal to
``predict`` called a request at a time on another: the reference is
``row_at_a_time_streams`` from ``tests/serving/test_batched.py``.

Everything is drawn from a ``repro.utils.rng`` seed; a failure names the
seed and the ``pytest -k`` line that replays it.
"""

import pytest

from repro.serving import ServingEndpoint
from repro.utils.rng import ensure_rng

from tests.serving.conftest import NUM_CHUNKS, make_url_world
from tests.serving.test_batched import (
    row_at_a_time_streams,
    served_streams,
)

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.exceptions.ConvergenceWarning"
)

SEEDS = range(20)
MAX_REQUESTS = 8
MAX_ROWS = 12
MODES = ("solo", "shadow", "canary")


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """A stream, a registry with a live version, and a candidate."""
    url_world = make_url_world(tmp_path_factory.mktemp("batched"))
    registry = url_world.registry_factory()
    live = registry.register(*url_world.make_parts())
    registry.promote(live.version, reason="initial")
    candidate = registry.register(
        *url_world.make_parts(train_chunks=range(4))
    )
    return url_world.generator, registry, candidate.version


def generate(seed, generator):
    rng = ensure_rng([seed, 42])
    chunk_ids = rng.choice(
        NUM_CHUNKS, size=int(rng.integers(1, 3)), replace=False
    )
    chunks = [generator.chunk(int(index)) for index in chunk_ids]
    tables, sources = [], []
    for __ in range(int(rng.integers(1, MAX_REQUESTS + 1))):
        source = int(rng.integers(len(chunks)))
        rows = rng.choice(
            chunks[source].num_rows,
            size=int(rng.integers(1, MAX_ROWS + 1)),
            replace=False,
        )
        tables.append(chunks[source].take(rows))
        sources.append(int(chunk_ids[source]))
    key_bound = int(rng.choice([len(tables) + 1, 2**31]))
    keys = [int(key) for key in rng.integers(0, key_bound, len(tables))]
    drawn = {
        "chunks": sources,
        "rows": [table.num_rows for table in tables],
        "keys": keys,
        "endpoint_seed": int(rng.integers(0, 1000)),
        "fraction": round(float(rng.uniform(0.05, 1.0)), 3),
    }
    return tables, drawn


@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
def test_batched_streams_equal_request_at_a_time(seed, world):
    generator, registry, candidate = world
    tables, drawn = generate(seed, generator)
    replay = (
        f"seed {seed}, {drawn}; replay: pytest "
        f"tests/property/test_property_batched_serving.py "
        f"-k 'seed{seed}]'"
    )
    for mode in MODES:
        batched, single = (
            ServingEndpoint(registry, seed=drawn["endpoint_seed"])
            for __ in range(2)
        )
        if mode != "solo":
            for endpoint in (batched, single):
                endpoint.attach_candidate(
                    candidate, mode=mode, fraction=drawn["fraction"]
                )
        served = batched.predict_requests(tables, keys=drawn["keys"])
        assert served_streams(served) == row_at_a_time_streams(
            single, tables, drawn["keys"]
        ), f"{mode}: {replay}"

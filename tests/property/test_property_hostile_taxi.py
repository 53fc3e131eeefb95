"""Generated property: hostile taxi input reaches the online update
deterministically, or not at all.

A chunk of the taxi stream is made hostile in one of five ways — empty,
one column all NaN, ``inf`` coordinates, duplicate pickup timestamps,
pickup and dropoff swapped — and fed through ``platform.observe``
between clean chunks. Each case either:

* is processed deterministically: two fresh platforms end on the same
  digest (packed parameters, optimizer state and cost tracker, as
  bytes), and a platform whose online update runs the per-step
  reference of ``test_property_online_update`` ends on the same bytes
  too — a NaN in the same position, with the same payload; or
* raises a ``repro.exceptions`` error, the same one each time.

Rows the anomaly filter drops never reach the kernel: each online
update trains on exactly the rows the pipeline's stateless prefix, run
by hand on the same table, keeps.

A failure names the seed and the case, and
``pytest tests/property/test_property_hostile_taxi.py -k "seed<N>"``
replays it.
"""

import hashlib

import numpy as np
import pytest

from repro.datasets.taxi import make_taxi_pipeline
from repro.exceptions import ReproError
from repro.experiments.common import make_platform, taxi_scenario
from repro.utils.rng import ensure_rng
from tests.property.test_property_online_update import reference_update
from tests.property.test_property_sgd_step import as_bytes

SEEDS = range(6)
#: The taxi stream's coordinate columns.
COORDINATES = ("pickup_lat", "pickup_lon", "dropoff_lat", "dropoff_lon")


def empty(rng, table):
    return table.head(0)


def all_nan_column(rng, table):
    """Half the time ``passenger_count``, which no anomaly rule reads:
    its NaNs reach the scaler and the model."""
    names = table.column_names
    name = names[int(rng.integers(len(names)))]
    if rng.random() < 0.5:
        name = "passenger_count"
    return table.with_column(name, np.full(table.num_rows, np.nan))


def inf_coordinates(rng, table):
    name = COORDINATES[int(rng.integers(len(COORDINATES)))]
    values = table.column(name).copy()
    values[rng.random(table.num_rows) < 0.3] = rng.choice([np.inf, -np.inf])
    return table.with_column(name, values)


def duplicate_timestamps(rng, table):
    pickup = table.column("pickup_datetime").copy()
    rows = rng.choice(table.num_rows, size=table.num_rows // 2)
    pickup[rows] = pickup[0]
    return table.with_column("pickup_datetime", pickup)


def swapped_pickup_dropoff(rng, table):
    swapped = {}
    for pickup, dropoff in (
        ("pickup_datetime", "dropoff_datetime"),
        ("pickup_lat", "dropoff_lat"),
        ("pickup_lon", "dropoff_lon"),
    ):
        swapped[pickup] = table.column(dropoff)
        swapped[dropoff] = table.column(pickup)
    return table.with_columns(swapped)


CASES = (
    empty,
    all_nan_column,
    inf_coordinates,
    duplicate_timestamps,
    swapped_pickup_dropoff,
)


def kept_rows(table):
    """Rows the taxi pipeline's stateless prefix keeps — parser,
    extractors and anomaly detector, run by hand."""
    batch = table
    for component in make_taxi_pipeline().components:
        batch = component.transform(batch)
        if component.name == "anomaly_detector":
            return batch.num_rows
    raise AssertionError("the taxi pipeline lost its anomaly detector")


def digest(platform):
    model, optimizer = platform.manager.model, platform.manager.optimizer
    payload = repr(
        (
            model.params.tobytes(),
            model.updates_applied,
            as_bytes(optimizer.state_dict()),
            platform.engine.tracker.state_dict(),
        )
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def run(tables, reference=False):
    """Observe ``tables`` on a fresh fitted platform; returns the
    digest and the rows each online update trained on, or the error."""
    platform = make_platform(taxi_scenario("test"))
    engine = platform.engine
    trained = []
    kernel = engine.online_update

    def online_update(trainer, features, batch_rows):
        trained.append(features.num_rows)
        if reference:
            return reference_update(engine, trainer, features, batch_rows)
        return kernel(trainer, features, batch_rows)

    engine.online_update = online_update
    try:
        for table in tables:
            platform.observe(table)
    except ReproError as error:
        return type(error), str(error)
    return digest(platform), trained


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.filterwarnings("ignore::repro.exceptions.ConvergenceWarning")
@pytest.mark.parametrize("case", CASES, ids=lambda case: case.__name__)
@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
def test_hostile_chunk_is_deterministic_or_refused(seed, case):
    rng = ensure_rng(seed)
    stream = list(taxi_scenario("test").make_stream())
    at = int(rng.integers(1, 4))
    tables = stream[:at] + [case(rng, stream[at])] + stream[at + 1:at + 3]
    where = (
        f"seed={seed} case={case.__name__} hostile chunk {at}\nreplay: "
        "pytest tests/property/test_property_hostile_taxi.py "
        f'-k "seed{seed} and {case.__name__}"'
    )
    first, second = run(tables), run(tables)
    assert first == second, where
    assert run(tables, reference=True) == first, where
    if isinstance(first[0], type):  # refused
        assert issubclass(first[0], ReproError), where
        return
    expected = [rows for rows in map(kept_rows, tables) if rows]
    assert first[1] == expected, where

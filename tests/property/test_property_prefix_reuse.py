"""Generated properties of the once-per-step stateless work.

**Reuse ≡ recompute.** ``PipelineManager.answer_queries`` leaves the
stateless prefix's output in a one-entry memo keyed by the *identity*
of the table, and the training pass over that same object starts from
it. The reference is the same manager driven so that it can never
reuse: every call is handed an equal-content copy of the table. For
random pipelines × call sequences × ``online_statistics`` on/off the
two end on the same bytes — every returned ``Features`` and
prediction, every component's pickle, model and optimizer state, the
cost tracker (totals, per-label breakdown, key order) and the
telemetry event stream (names, order, virtual times, ``values``).

**Purity.** Reuse is only sound while a stateless component is a pure
function of its batch: for every stateless class
``repro.pipeline.components`` exports, ``transform`` leaves the pickle
byte-equal and two transforms of one batch return equal bytes.

**The hasher's plans** are keyed by the identity of a batch's frozen
index arrays: a planned hasher ≡ a fresh one, a writable batch (or a
read-only view of a writable one) changed in place is hashed for what
it holds now, and neither the plans nor the memo reach a pickle.
``test_property_hasher_plans.py`` has the table's lifetime.

Everything is drawn from ``repro.utils.rng`` seeds; a failure names the
seed and the configuration, and ``pytest
tests/property/test_property_prefix_reuse.py -k "seed<N>"`` replays it.
"""

import copy
import inspect
import pickle

import numpy as np
import pytest

import repro.pipeline.components as components_module
from repro.core.pipeline_manager import PipelineManager
from repro.data.manager import DataManager
from repro.data.storage import ChunkStorage
from repro.data.table import Table
from repro.datasets.taxi import (
    TAXI_FEATURE_COLUMNS,
    TaxiStreamGenerator,
    make_taxi_pipeline,
)
from repro.datasets.url import URLStreamGenerator, make_url_pipeline
from repro.exceptions import PipelineError
from repro.execution.engine import LocalExecutionEngine
from repro.ml.models import LinearRegression, LinearSVM
from repro.ml.optim import Adam, RMSProp
from repro.obs.telemetry import Telemetry
from repro.pipeline.component import (
    Features,
    PipelineComponent,
    SparseRows,
    StatelessComponent,
)
from repro.pipeline.components import (
    AnomalyFilter,
    ColumnDifference,
    ColumnExtractor,
    DayOfWeekExtractor,
    FeatureAssembler,
    FeatureHasher,
    HourOfDayExtractor,
    MinMaxScaler,
    MissingValueImputer,
    RangeFilter,
    StandardScaler,
    SvmLightParser,
)
from repro.pipeline.fingerprint import component_fingerprint
from repro.pipeline.pipeline import Pipeline
from repro.serving.endpoint import shared_stateless_prefix
from repro.utils.rng import ensure_rng

from tests.property.test_property_sparse_pipeline import (
    features_bytes as sparse_features_bytes,
)
from tests.sparse import sparse_rows

SEEDS = range(12)
URL_WIDTH = 64
TRIPWIRE = 777.0


# ----------------------------------------------------------------------
# Random table pipelines
# ----------------------------------------------------------------------
def _product(a, b):
    return np.asarray(a, dtype=np.float64) * np.asarray(b, dtype=np.float64)


def _keep_even_rows(table):
    return np.arange(table.num_rows) % 2 == 0


class Tripwire(StatelessComponent):
    """Raises on a table whose ``t`` holds the sentinel (no component
    here writes ``t``), passes others on."""

    def transform(self, batch):
        if (np.asarray(batch["t"]) == TRIPWIRE).any():
            raise PipelineError(f"{self.name}: tripped")
        return batch


def stateless_pool(variant):
    """Factories ``name -> component``; ``variant`` moves a constant so
    two builds of one layout can differ in what the prefix computes."""
    return [
        lambda name: ColumnExtractor(["a", "b"], _product, "a", name=name),
        lambda name: ColumnDifference("b", "a", "b", name=name),
        lambda name: ColumnExtractor(["a"], np.abs, "a", name=name),
        lambda name: HourOfDayExtractor("t", output="b", name=name),
        lambda name: RangeFilter("a", minimum=-0.5 - variant, name=name),
        lambda name: AnomalyFilter(_keep_even_rows, name=name),
    ]


STATEFUL_POOL = [
    lambda name: StandardScaler(["a", "b"], name=name),
    lambda name: MinMaxScaler(["b"], name=name),
    lambda name: MissingValueImputer(["a"], name=name),
]

#: Where the stateless prefix ends and what it holds.
LAYOUTS = ("no_prefix", "prefix", "all_stateless", "drops_all", "tripwire")


def table_pipeline(rng, layout, variant=0):
    """A random chain over columns ``a b t y`` ending in an assembler."""
    stateless = stateless_pool(variant)

    def draw(pool, count):
        return [pool[i] for i in rng.integers(0, len(pool), size=count)]

    body = draw(stateless + STATEFUL_POOL, int(rng.integers(1, 4)))
    if layout == "no_prefix":
        factories = draw(STATEFUL_POOL, 1) + body
    elif layout == "all_stateless":
        factories = draw(stateless, int(rng.integers(1, 5)))
    else:
        prefix = draw(stateless, int(rng.integers(1, 5)))
        if layout == "drops_all":
            prefix.append(
                lambda name: RangeFilter("a", minimum=1e12, name=name)
            )
        if layout == "tripwire":
            # Mid-prefix: something stateless runs before and after.
            prefix.insert(1, lambda name: Tripwire(name=name))
            prefix.append(stateless[0])
        factories = prefix + draw(STATEFUL_POOL, 1) + body
    factories.append(lambda name: FeatureAssembler(["a", "b"], "y", name=name))
    return Pipeline(
        [factory(f"c{position}") for position, factory in enumerate(factories)]
    )


def random_table(rng, rows):
    a = rng.standard_normal(rows)
    a[rng.random(rows) < 0.1] = np.nan
    return Table(
        {
            "a": a,
            "b": rng.standard_normal(rows),
            "t": rng.uniform(0, 1e6, rows),
            "y": rng.standard_normal(rows),
        }
    )


def copy_of(table):
    """An equal table that is not the same object, nor are its columns."""
    return Table({name: table.column(name).copy() for name in table})


# ----------------------------------------------------------------------
# One manager under a recorded call sequence
# ----------------------------------------------------------------------
def manager_for(pipeline, model, optimizer):
    telemetry = Telemetry()
    manager = PipelineManager(
        pipeline=pipeline,
        model=model,
        optimizer=optimizer,
        data_manager=DataManager(storage=ChunkStorage(), seed=0),
        engine=LocalExecutionEngine(telemetry=telemetry),
    )
    return manager, telemetry


def features_bytes(features):
    assert isinstance(features, Features)
    matrix, labels = features
    if isinstance(matrix, np.ndarray):
        body = matrix.dtype.str, matrix.shape, matrix.tobytes()
        return body, labels.tobytes()
    return matrix.shape, sparse_features_bytes(matrix, np.asarray(labels))


def drive(manager, telemetry, tables, sequence, online_statistics, reuse):
    """Run ``sequence`` and return everything observable afterwards.

    With ``reuse`` false every call gets its own copy of the table, so
    no training pass ever meets the object a prediction saw.
    """
    log = []
    for operation, argument in sequence:
        if operation == "replace":
            manager.replace_artifacts(*argument())
            continue
        table = tables[argument] if reuse else copy_of(tables[argument])
        try:
            if operation == "predict":
                predictions, labels = manager.answer_queries(table)
                log.append((predictions.tobytes(), labels.tobytes()))
            else:
                raw, features = manager.process_training_chunk(
                    table, online_statistics=online_statistics
                )
                if features.num_rows:
                    manager.online_step(features, 3)
                log.append((raw.timestamp, features_bytes(features)))
        except PipelineError as error:
            log.append((type(error).__name__, str(error)))
    tracker = manager.engine.tracker
    storage = manager.data_manager.storage
    return {
        "log": log,
        "components": [pickle.dumps(c) for c in manager.pipeline],
        "model": manager.model.params_vector().tobytes(),
        "optimizer": pickle.dumps(manager.optimizer.state_dict()),
        "cost": repr(tracker.state_dict()),
        "breakdown": repr(tracker.breakdown()),
        "events": [
            (e["kind"], e["name"], e["t"], e["dur"], e["stack"], e["attrs"])
            for e in telemetry.events
        ],
        # A pass that raised left its raw chunk without features.
        "stored": [
            (timestamp, features_bytes(Features(chunk.features, chunk.labels)))
            for timestamp in storage.raw_timestamps
            if storage.is_materialized(timestamp)
            for chunk in [storage.get_features(timestamp)]
        ],
    }


def assert_same(reused, recomputed, context):
    assert reused.keys() == recomputed.keys()
    for key in reused:
        assert reused[key] == recomputed[key], f"{key} differs: {context}"


#: name -> call sequence over tables W (warm-up), A, B, C. Every one
#: ends with a plain step on C: whatever came before, the next step is
#: also the same.
def sequences(replacement):
    tail = [("predict", "C"), ("observe", "C")]
    head = [("observe", "W")]
    return {
        "step": head + [("predict", "A"), ("observe", "A")] + tail,
        "observe_alone": head + [("observe", "A")] + tail,
        "interleaved": head
        + [("predict", "A"), ("predict", "B"), ("observe", "A")]
        + tail,
        "predict_twice": head
        + [("predict", "A"), ("predict", "A"), ("observe", "A")]
        + tail,
        "replaced": head
        + [("predict", "A"), ("replace", replacement), ("observe", "A")]
        + tail,
        "bad_then_good": head
        + [("predict", "BAD"), ("observe", "BAD")]
        + [("predict", "A"), ("observe", "BAD"), ("observe", "A")]
        + tail,
    }


SEQUENCE_NAMES = tuple(sequences(None))


def run_both(build, tables, name, online_statistics, context):
    """``build(variant) -> (pipeline, model, optimizer)``; the
    replacement triple is variant 1, built afresh for each side."""
    sequence = sequences(lambda: build(1))[name]
    results = []
    for reuse in (True, False):
        manager, telemetry = manager_for(*build(0))
        results.append(
            drive(
                manager, telemetry, tables, sequence, online_statistics, reuse
            )
        )
    assert_same(*results, context)
    return results[0]


@pytest.mark.parametrize("online_statistics", [True, False])
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
def test_table_pipelines_reuse_is_recompute(seed, layout, online_statistics):
    rng = ensure_rng(seed)
    tables = {
        key: random_table(rng, int(rng.integers(1, 30))) for key in "WABC"
    }
    # An empty chunk takes every path a full one does.
    if seed % 4 == 0:
        tables["ABC"[seed % 3]] = random_table(rng, 0)
    # Positive ``a``: the one component ahead of the tripwire drops at
    # most the odd rows.
    tables["BAD"] = random_table(rng, 5).with_columns(
        {"a": np.arange(1.0, 6.0), "t": np.full(5, TRIPWIRE)}
    )
    pipeline_seed = int(rng.integers(0, 2**31))

    def build(variant):
        return (
            table_pipeline(ensure_rng(pipeline_seed), layout, variant),
            LinearRegression(num_features=2),
            Adam(0.05),
        )

    for name in SEQUENCE_NAMES:
        result = run_both(
            build,
            tables,
            name,
            online_statistics,
            f"seed {seed}, {layout}, {name}, "
            f"online_statistics={online_statistics}, "
            f"pipeline {build(0)[0]!r}",
        )
        if layout == "tripwire" and name == "bad_then_good":
            tripped = [e for e in result["log"] if e[0] == "PipelineError"]
            assert len(tripped) == 3 and len(set(tripped)) == 1


@pytest.mark.parametrize("online_statistics", [True, False])
@pytest.mark.parametrize("name", SEQUENCE_NAMES)
@pytest.mark.parametrize("seed", SEEDS[:4], ids=lambda s: f"seed{s}")
def test_url_pipeline_reuse_is_recompute(seed, name, online_statistics):
    generator = URLStreamGenerator(num_chunks=4, rows_per_chunk=12, seed=seed)
    tables = dict(zip("WABC", (generator.chunk(i) for i in range(4))))
    lines = tables["B"].column("line").copy()
    lines[3] = lines[3] + " 12:oops"
    tables["BAD"] = Table({"line": lines})

    def build(variant):
        return (
            make_url_pipeline(URL_WIDTH << variant),
            LinearSVM(URL_WIDTH << variant),
            Adam(0.05),
        )

    result = run_both(
        build,
        tables,
        name,
        online_statistics,
        f"seed {seed}, url, {name}, online_statistics={online_statistics}",
    )
    if name == "bad_then_good":
        assert sum(e[0] == "PipelineError" for e in result["log"]) == 3


@pytest.mark.parametrize("online_statistics", [True, False])
@pytest.mark.parametrize("name", SEQUENCE_NAMES)
@pytest.mark.parametrize("seed", SEEDS[:4], ids=lambda s: f"seed{s}")
def test_taxi_pipeline_reuse_is_recompute(seed, name, online_statistics):
    generator = TaxiStreamGenerator(
        num_chunks=4, rows_per_chunk=25, anomaly_rate=0.2, seed=seed
    )
    tables = dict(zip("WABC", (generator.chunk(i) for i in range(4))))
    # Taxi has no malformed input that raises; a chunk of nothing but
    # anomalies (every row dropped mid-prefix) stands in its place.
    parked = tables["B"]
    tables["BAD"] = parked.with_columns(
        {
            "dropoff_lat": parked.column("pickup_lat"),
            "dropoff_lon": parked.column("pickup_lon"),
        }
    )

    def build(variant):
        return (
            make_taxi_pipeline(),
            LinearRegression(num_features=len(TAXI_FEATURE_COLUMNS)),
            RMSProp(0.01 * (1 + variant)),
        )

    run_both(
        build,
        tables,
        name,
        online_statistics,
        f"seed {seed}, taxi, {name}, online_statistics={online_statistics}",
    )


# ----------------------------------------------------------------------
# The reuse happens, and only when it may
# ----------------------------------------------------------------------
def count_transforms(pipeline):
    """Shadow every component's ``transform`` on the instance (as the
    e2e trace does) and return the live ``name -> calls`` dict."""
    calls = {}
    for component in pipeline:
        calls[component.name] = 0

        def counted(batch, component=component, inner=component.transform):
            calls[component.name] += 1
            return inner(batch)

        component.transform = counted
    return calls


@pytest.mark.parametrize("online_statistics", [True, False])
def test_prefix_runs_once_per_prequential_step(online_statistics):
    generator = TaxiStreamGenerator(num_chunks=3, rows_per_chunk=10, seed=1)
    manager, _ = manager_for(
        make_taxi_pipeline(),
        LinearRegression(len(TAXI_FEATURE_COLUMNS)),
        RMSProp(0.01),
    )
    calls = count_transforms(manager.pipeline)
    prefix = manager.pipeline.component_names[:8]
    assert prefix[-1] == "anomaly_detector"
    assert manager.pipeline.components[8].is_stateful

    first, second, third = (generator.chunk(i) for i in range(3))
    manager.answer_queries(first)
    manager.process_training_chunk(first, online_statistics)
    assert all(calls[name] == 1 for name in prefix)
    assert calls["scaler"] == calls["assembler"] == 2

    # Spent: a second pass over the same object recomputes.
    manager.process_training_chunk(first, online_statistics)
    assert all(calls[name] == 2 for name in prefix)

    # Another table in between, an equal copy, and new artifacts: each
    # recomputes.
    manager.answer_queries(second)
    manager.answer_queries(third)
    manager.process_training_chunk(second, online_statistics)
    assert all(calls[name] == 5 for name in prefix)
    manager.answer_queries(third)
    manager.process_training_chunk(copy_of(third), online_statistics)
    assert all(calls[name] == 7 for name in prefix)
    manager.answer_queries(third)
    manager.replace_artifacts(*manager.artifacts)
    manager.process_training_chunk(third, online_statistics)
    assert all(calls[name] == 9 for name in prefix)


def test_failed_prefix_leaves_nothing_to_reuse():
    pipeline = Pipeline(
        [
            ColumnExtractor(["a"], np.abs, "a", name="first"),
            Tripwire(name="tripwire"),
            StandardScaler(["a"], name="scaler"),
            FeatureAssembler(["a"], "y", name="assembler"),
        ]
    )
    manager, _ = manager_for(pipeline, LinearRegression(1), Adam(0.05))
    calls = count_transforms(pipeline)
    bad = Table({"a": [1.0, 2.0], "t": [0.0, TRIPWIRE], "y": [0.0, 1.0]})
    with pytest.raises(PipelineError, match="tripped") as predicted:
        manager.answer_queries(bad)
    with pytest.raises(PipelineError, match="tripped") as observed:
        manager.process_training_chunk(bad)
    assert str(predicted.value) == str(observed.value)
    assert calls == {"first": 2, "tripwire": 2, "scaler": 0, "assembler": 0}


def test_pipeline_alone_keeps_nothing_between_calls():
    """Without a memo the two paths are what they were: every
    component runs on every call."""
    pipeline = make_taxi_pipeline()
    calls = count_transforms(pipeline)
    table = TaxiStreamGenerator(num_chunks=1, seed=0).chunk(0)
    pipeline.transform(table)
    pipeline.update_transform(table)
    assert set(calls.values()) == {2}


# ----------------------------------------------------------------------
# Purity of every exported stateless component
# ----------------------------------------------------------------------
def _url_lines():
    return URLStreamGenerator(num_chunks=1, rows_per_chunk=8, seed=5).chunk(0)


def _numbers():
    return random_table(ensure_rng(11), 9)


def _hashable_rows():
    parsed = SvmLightParser().transform(_url_lines())
    return parsed._replace(data=np.nan_to_num(parsed.data))


#: class -> (instance factory, batch factory)
STATELESS_CASES = {
    SvmLightParser: (SvmLightParser, _url_lines),
    FeatureHasher: (lambda: FeatureHasher(16), _hashable_rows),
    AnomalyFilter: (lambda: AnomalyFilter(_keep_even_rows), _numbers),
    RangeFilter: (lambda: RangeFilter("a", minimum=0.0), _numbers),
    ColumnExtractor: (
        lambda: ColumnExtractor(["a", "b"], _product, "ab"),
        _numbers,
    ),
    ColumnDifference: (lambda: ColumnDifference("a", "b", "d"), _numbers),
    HourOfDayExtractor: (lambda: HourOfDayExtractor("t"), _numbers),
    DayOfWeekExtractor: (lambda: DayOfWeekExtractor("t"), _numbers),
    FeatureAssembler: (lambda: FeatureAssembler(["a", "b"], "y"), _numbers),
}


def exported_stateless_classes():
    return [
        value
        for value in vars(components_module).values()
        if inspect.isclass(value)
        and issubclass(value, PipelineComponent)
        and not value.is_stateful
    ]


def batch_bytes(batch):
    if isinstance(batch, Features):
        return features_bytes(batch)
    if isinstance(batch, SparseRows):
        return tuple((part.dtype.str, part.tobytes()) for part in batch)
    return [
        (name, batch.column(name).dtype.str, batch.column(name).tolist())
        for name in batch
    ]


def test_every_exported_stateless_class_has_a_purity_case():
    assert set(exported_stateless_classes()) == set(STATELESS_CASES)


@pytest.mark.parametrize(
    "kind", list(STATELESS_CASES), ids=lambda kind: kind.__name__
)
def test_stateless_transform_is_pure(kind):
    make_component, make_batch = STATELESS_CASES[kind]
    component, batch = make_component(), make_batch()
    before = pickle.dumps(component)
    identity = component_fingerprint(component)
    first = component.transform(batch)
    assert pickle.dumps(component) == before
    assert component_fingerprint(component) == identity
    second = component.transform(batch)
    assert pickle.dumps(component) == before
    assert batch_bytes(first) == batch_bytes(second)
    assert batch_bytes(first) == batch_bytes(
        pickle.loads(before).transform(make_batch())
    )


def test_anomaly_filter_counters_are_diagnostics_not_state(monkeypatch):
    detector = make_taxi_pipeline().component("anomaly_detector")
    before = pickle.dumps(detector)
    detector.transform(_taxi_prefix_output())
    assert detector.rows_seen > detector.rows_dropped > 0
    assert pickle.dumps(detector) == before
    restored = pickle.loads(before)
    assert (restored.rows_seen, restored.rows_dropped) == (0, 0)
    restored.transform(_taxi_prefix_output())
    assert restored.rows_seen == detector.rows_seen

    # A filter pickled when the counters were instance state (no
    # ``__getstate__``) loads, keeps counting, and sheds them from its
    # next pickle.
    old = AnomalyFilter(_keep_even_rows, name="old")
    old.rows_seen, old.rows_dropped = 40, 4
    with monkeypatch.context() as patch:
        patch.delattr(AnomalyFilter, "__getstate__")
        blob = pickle.dumps(old)
    assert b"rows_seen" in blob
    revived = pickle.loads(blob)
    assert (revived.rows_seen, revived.rows_dropped) == (40, 4)
    revived.transform(_numbers())
    assert revived.rows_seen == 49
    assert pickle.dumps(revived) == pickle.dumps(
        AnomalyFilter(_keep_even_rows, name="old")
    )


def _taxi_prefix_output():
    pipeline = make_taxi_pipeline()
    batch = TaxiStreamGenerator(
        num_chunks=1, anomaly_rate=0.3, seed=2
    ).chunk(0)
    for component in pipeline.components[:7]:
        batch = component.transform(batch)
    return batch


def test_taxi_shadow_prefix_survives_serving():
    live = make_taxi_pipeline()
    candidate = copy.deepcopy(live)
    assert shared_stateless_prefix(live, candidate) == 8
    manager, _ = manager_for(
        live, LinearRegression(len(TAXI_FEATURE_COLUMNS)), RMSProp(0.01)
    )
    chunk = TaxiStreamGenerator(num_chunks=1, seed=4).chunk(0)
    manager.answer_queries(chunk)
    manager.process_training_chunk(chunk)
    assert live.component("anomaly_detector").rows_seen > 0
    assert shared_stateless_prefix(live, candidate) == 8


# ----------------------------------------------------------------------
# The hasher's plan
# ----------------------------------------------------------------------
def frozen(rows):
    rows.indptr.flags.writeable = rows.indices.flags.writeable = False
    return rows


def random_rows(rng, num_rows, universe=40):
    rows = []
    for _ in range(num_rows):
        size = int(rng.integers(0, 9))
        indices = rng.choice(universe, size=size, replace=False)
        values = rng.standard_normal(size)
        rows.append({int(i): float(v) for i, v in zip(indices, values)})
    return sparse_rows(rows, labels=rng.choice([-1.0, 1.0], size=num_rows))


@pytest.mark.parametrize("signed", [True, False])
@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
def test_planned_hasher_is_a_fresh_hasher(seed, signed):
    rng = ensure_rng(seed)
    hasher = FeatureHasher(8, signed=signed)
    for _ in range(4):
        rows = frozen(random_rows(rng, int(rng.integers(0, 12))))
        for _ in range(3):
            # Same index arrays, new values: what imputer and scaler
            # hand the hasher within one chunk.
            batch = rows._replace(data=rng.standard_normal(len(rows.data)))
            assert features_bytes(hasher.transform(batch)) == features_bytes(
                FeatureHasher(8, signed=signed).transform(batch)
            ), f"seed {seed}, signed={signed}"


@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
def test_writable_rows_changed_in_place_are_hashed_as_they_are(seed):
    rng = ensure_rng(seed)
    hasher = FeatureHasher(8)
    rows = random_rows(rng, 10)
    hasher.transform(rows)
    rows.indices[:] = rng.permutation(rows.indices)
    sizes = rng.multinomial(len(rows.indices), np.ones(10) / 10)
    rows.indptr[1:] = np.cumsum(sizes)
    assert features_bytes(hasher.transform(rows)) == features_bytes(
        FeatureHasher(8).transform(rows)
    ), f"seed {seed}"


def test_parser_output_is_frozen_where_the_plan_keys_on_it():
    rows = SvmLightParser().transform(_url_lines())
    assert not rows.indptr.flags.writeable
    assert not rows.indices.flags.writeable
    with pytest.raises(ValueError):
        rows.indices[0] = 1


def test_neither_plan_nor_memo_reaches_a_pickle():
    hasher = FeatureHasher(16)
    before = pickle.dumps(hasher)
    identity = component_fingerprint(hasher)
    rows = _hashable_rows()
    hasher.transform(rows)
    assert len(hasher._plans) == 1
    assert pickle.dumps(hasher) == before
    assert component_fingerprint(hasher) == identity
    restored = pickle.loads(pickle.dumps(hasher))
    assert restored._plans == {}
    assert features_bytes(
        restored.transform(_hashable_rows())
    ) == features_bytes(hasher.transform(_hashable_rows()))


@pytest.mark.parametrize("rows_per_chunk", [5, 400])
def test_pipeline_pickle_holds_no_chunk(rows_per_chunk):
    """Predicting a chunk, of any size, moves no pickled byte (the memo
    and the hasher's plan both hold it at that moment); after the
    training pass the pickle is that of a pipeline which saw equal
    tables and holds no plan."""
    generator = URLStreamGenerator(
        num_chunks=2, rows_per_chunk=rows_per_chunk, seed=3
    )
    pipeline, twin = make_url_pipeline(URL_WIDTH), make_url_pipeline(URL_WIDTH)
    manager, _ = manager_for(pipeline, LinearSVM(URL_WIDTH), Adam(0.05))
    manager.process_training_chunk(generator.chunk(0))
    before = pickle.dumps(pipeline)
    chunk = generator.chunk(1)
    manager.answer_queries(chunk)
    assert pickle.dumps(pipeline) == before
    manager.process_training_chunk(chunk)

    for index in range(2):
        twin.update_transform(generator.chunk(index))
    # Each chunk's parsed rows died with its call, and its plan too.
    assert twin.component("hasher")._plans == {}
    assert pickle.dumps(pipeline) == pickle.dumps(twin)

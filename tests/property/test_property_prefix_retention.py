"""Generated properties of the stateless prefix kept beside a raw chunk.

The output of the pipeline's stateless prefix (URL: the parsed rows;
taxi: the stateless columns) is kept beside a stored raw chunk
(``ChunkStorage.derived``), and a re-read — to re-materialize an
evicted feature chunk for a proactive-training sample, or to replay
the history for a full retraining — that finds it starts at the first
stateful component. In a store that can evict (a chunk or byte bound),
the step that stores a chunk keeps the prefix it computed, so no
re-read parses and the parser runs once per stored chunk. An unbounded
store keeps nothing until a chunk's first re-read, which computes it.

**Retained ≡ re-parsed.** The reference is the same deployment driven
so that it can never reuse: every re-read gets an equal-content copy of
the raw table (the reference of ``test_property_prefix_reuse.py``,
moved from one step to the whole run). Over generated stream lengths,
materialization budgets, samplers, ``raw_capacity``, URL and taxi
pipelines, ``online_statistics`` on/off (off: re-materialization also
charges a statistics scan), continuous and periodical warm/cold, the
two end on the same bytes: every re-read ``Features``, component /
model / optimizer pickles, the cost tracker (totals, breakdown, key
order), the telemetry event stream, the materialization and storage
statistics, and every checkpoint file.

**Lifetime.** What is kept dies with its raw chunk (never more entries
than stored raw chunks, every key a stored timestamp), is in no
checkpoint file, is gone after a recovery (kill → recover → run ≡
uninterrupted; a chunk the checkpoint restored is computed again on its
first re-read, one the recovered process stored is not), is forgotten
by ``replace_artifacts`` (a pipeline that parses another column
re-parses), and is kept only for the very object stored while its
table is frozen — a step that answered other rows keeps a fresh
prefix of the chunk it stores.

**Transient faults.** ``io_error`` at generated ``storage.read``
occurrences × ``RetryPolicy(max_attempts, jitter)``: the run either
ends on the fault-free run's bytes, the retries in
``Retrier.retries`` / ``total_delay`` and never in ``total_cost``, or
raises ``RetryExhausted`` with nothing half-retained.

Everything is drawn from a ``repro.utils.rng`` seed; a failure names
the seed and the configuration, and ``pytest
tests/property/test_property_prefix_retention.py -k "seed<N>"``
replays it.
"""

import pickle
from collections import Counter
from dataclasses import asdict, replace
from itertools import islice

import numpy as np
import pytest

from repro.core.config import ScheduleConfig
from repro.core.pipeline_manager import PipelineManager
from repro.data.chunk import RawChunk
from repro.data.manager import DataManager
from repro.data.storage import ChunkStorage
from repro.data.table import Table
from repro.datasets.url import URLStreamGenerator, make_url_pipeline
from repro.execution.engine import LocalExecutionEngine
from repro.experiments.common import (
    make_deployment,
    taxi_scenario,
    url_scenario,
)
from repro.ml.models import LinearSVM
from repro.ml.optim import Adam
from repro.obs.telemetry import Telemetry
from repro.pipeline.component import Features
from repro.pipeline.components import (
    ColumnDifference,
    FeatureHasher,
    SparseMeanImputer,
    SparseStandardScaler,
    SvmLightParser,
)
from repro.pipeline.fingerprint import component_fingerprint
from repro.pipeline.pipeline import Pipeline, PrefixMemo
from repro.reliability import (
    CheckpointConfig,
    FaultPlan,
    FaultSpec,
    RetryExhausted,
    RetryPolicy,
    SimulatedCrash,
)
from repro.reliability.sites import STORAGE_READ, STREAM_READ
from repro.utils.rng import ensure_rng

from tests.property.test_property_prefix_reuse import (
    copy_of,
    features_bytes,
)

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.exceptions.ConvergenceWarning"
)

SEEDS = range(4)
SCENARIOS = {"url": url_scenario("test"), "taxi": taxi_scenario("test")}
#: Appended to, never reordered: a case's draws are seeded by position.
APPROACHES = ("continuous", "periodical_warm", "periodical_cold")
#: Both pipelines call their first (stateless) component this.
PARSER = "input_parser"


# ----------------------------------------------------------------------
# Generated configurations
# ----------------------------------------------------------------------
def draw_case(seed, dataset, approach):
    rng = ensure_rng(
        [seed, sorted(SCENARIOS).index(dataset), APPROACHES.index(approach)]
    )

    def maybe(draw):
        return draw() if rng.random() < 0.5 else None

    return {
        "seed": seed,
        "dataset": dataset,
        "approach": approach,
        "n": int(rng.integers(10, 25)),
        "m": maybe(lambda: int(rng.integers(0, 5))),
        "sampler": str(rng.choice(["uniform", "window", "time"])),
        "window_size": int(rng.integers(3, 12)),
        "half_life": float(rng.integers(2, 10)),
        "sample_size": int(rng.integers(2, 9)),
        "interval": int(rng.integers(1, 4)),
        "raw_capacity": maybe(lambda: int(rng.integers(3, 14))),
        "online_statistics": bool(rng.random() < 0.5),
        "cadence": int(rng.integers(2, 6)),
    }


def build(case, directory=None, **reliability):
    """An unfitted deployment for ``case`` and its telemetry."""
    scenario = SCENARIOS[case["dataset"]]
    if case["approach"] == "continuous":
        scenario = scenario.with_continuous(
            sampler=case["sampler"],
            window_size=case["window_size"],
            half_life=case["half_life"],
            sample_size_chunks=case["sample_size"],
            schedule=ScheduleConfig("static", case["interval"]),
            max_materialized_chunks=case["m"],
            online_statistics=case["online_statistics"],
        )
    else:
        scenario = replace(
            scenario,
            periodical_config=replace(
                scenario.periodical_config,
                retrain_every_chunks=case["interval"] + 1,
                max_epoch_iterations=4,
                warm_start=case["approach"] == "periodical_warm",
            ),
        )
    telemetry = Telemetry()
    deployment = make_deployment(
        scenario,
        case["approach"].split("_")[0],
        telemetry,
        checkpoint=directory
        and CheckpointConfig(directory, cadence_chunks=case["cadence"]),
        **reliability,
    )
    # No constructor takes them: the paper keeps every raw chunk, and
    # bounds the store by a chunk count.
    storage = deployment.data_manager.storage
    storage.raw_capacity = case["raw_capacity"]
    storage.max_bytes = case.get("max_bytes")
    return scenario, deployment, telemetry


def seeds(case):
    """True when the steps of ``case`` keep the prefix of every chunk
    they store: the store can evict (only a continuous deployment's is
    bounded here), so each stored chunk may be re-read."""
    return case["approach"] == "continuous" and (
        case["m"] is not None or case.get("max_bytes") is not None
    )


def never_the_stored_object(data_manager):
    """Every read of history returns an equal chunk that is not the
    stored one: nothing can be kept beside it, nothing reused."""
    read = data_manager.read_raw

    def read_copy(timestamp):
        raw = read(timestamp)
        return RawChunk(raw.timestamp, copy_of(raw.table))

    data_manager.read_raw = read_copy


def watch_rereads(deployment):
    """Log ``(timestamp, started from a kept prefix, Features bytes)``
    per re-read, checking the lifetime invariants around each."""
    manager, storage = deployment.manager, deployment.data_manager.storage
    reread, log = manager._reread, []

    def watched(raw, replay):
        kept = storage._derived.get(raw.timestamp)
        hit = kept is not None and kept.source is raw.table
        features = reread(raw, replay)
        assert len(storage._derived) <= storage.num_raw
        assert set(storage._derived) <= set(storage.raw_timestamps)
        log.append((raw.timestamp, hit, features_bytes(features)))
        return features

    manager._reread = watched
    return log


@pytest.fixture
def parser_runs(monkeypatch):
    """Live count of the two pipelines' first component's transforms."""
    runs = Counter()
    for kind in (SvmLightParser, ColumnDifference):

        def counted(self, batch, inner=kind.transform):
            runs[self.name] += 1
            return inner(self, batch)

        monkeypatch.setattr(kind, "transform", counted)
    return runs


def outcome(deployment, result, telemetry, log, directory=None):
    """Everything observable after a run, as comparable bytes."""
    manager, tracker = deployment.manager, deployment.engine.tracker
    storage = deployment.data_manager.storage
    return {
        "rereads": [(timestamp, body) for timestamp, _, body in log],
        "errors": result.error_history,
        "costs": result.cost_history,
        "counters": result.counters,
        "components": [pickle.dumps(c) for c in manager.pipeline],
        "fingerprints": [component_fingerprint(c) for c in manager.pipeline],
        "model": manager.model.params_vector().tobytes(),
        "optimizer": pickle.dumps(manager.optimizer.state_dict()),
        "cost": repr(tracker.state_dict()),
        "breakdown": repr(tracker.breakdown()),
        # Less where a checkpoint was written: the directories differ.
        "events": [
            (
                e["kind"],
                e["name"],
                e["t"],
                e["dur"],
                e["stack"],
                {k: v for k, v in e["attrs"].items() if k != "path"},
            )
            for e in telemetry.events
        ],
        "materialization": asdict(deployment.data_manager.stats),
        "storage": asdict(storage.stats),
        "stored": (storage.raw_timestamps, storage.materialized_timestamps),
        "checkpoints": {
            str(path.relative_to(directory)): path.read_bytes()
            for path in sorted(directory.rglob("*"))
            if path.is_file()
        }
        if directory
        else {},
    }


def run(case, directory=None, reuse=True, **reliability):
    scenario, deployment, telemetry = build(case, directory, **reliability)
    if not reuse:
        never_the_stored_object(deployment.data_manager)
    log = watch_rereads(deployment)
    result = scenario.fit(deployment).run(
        islice(scenario.make_stream(), case["n"])
    )
    return deployment, log, outcome(deployment, result, telemetry, log, directory)


def assert_same(ours, theirs, case, skip=()):
    assert ours.keys() == theirs.keys()
    for key in ours.keys() - set(skip):
        assert ours[key] == theirs[key], f"{key} differs: {case}"


# ----------------------------------------------------------------------
# Retained ≡ re-parsed
# ----------------------------------------------------------------------
@pytest.mark.parametrize("approach", APPROACHES)
@pytest.mark.parametrize("dataset", sorted(SCENARIOS))
@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
def test_retained_is_reparsed(tmp_path, parser_runs, seed, dataset, approach):
    check_retained(tmp_path, parser_runs, draw_case(seed, dataset, approach))


@pytest.mark.parametrize("dataset", sorted(SCENARIOS))
def test_a_byte_budget_alone_makes_steps_keep_their_prefix(
    tmp_path, parser_runs, dataset
):
    """``max_bytes`` with no chunk count: the store can evict, so the
    steps keep what they parsed — about three chunks' payloads fit."""
    case = dict(
        draw_case(1, dataset, "continuous"),
        m=None,
        max_bytes=12_000,
        sampler="uniform",
    )
    deployment, log = check_retained(tmp_path, parser_runs, case)
    stats = deployment.data_manager.storage.stats
    assert stats.features_evicted > 0 and log, case
    assert deployment.data_manager.storage.num_materialized > 1, case


def check_retained(tmp_path, parser_runs, case):
    """The retained run of ``case`` against its never-reusing reference;
    returns the retained deployment and its re-read log."""
    deployment, log, retained = run(case, tmp_path / "retained")
    parses = parser_runs.pop(PARSER)
    _, reference_log, reference = run(case, tmp_path / "reference", reuse=False)
    assert_same(retained, reference, case)

    # The reference never started from a kept prefix; the retained run
    # did wherever it could, and saved exactly those parser runs.
    hits = sum(hit for _, hit, _ in log)
    assert not any(hit for _, hit, _ in reference_log), case
    assert parser_runs[PARSER] - parses == hits, case
    storage = deployment.data_manager.storage
    if seeds(case):
        # Every stored chunk's prefix was kept by the step that stored
        # it: no re-read parses, and the parser ran once per chunk.
        assert all(hit for _, hit, _ in log), case
        assert parses == storage.stats.raw_inserted, case
        assert set(storage._derived) == set(storage.raw_timestamps), case
    else:
        # Nothing is kept until a re-read, which computes it: each
        # chunk's first re-read parses, every later one does not.
        first = {}
        for timestamp, hit, _ in log:
            assert hit == (timestamp in first), case
            first[timestamp] = hit
        assert set(storage._derived) <= set(first), case
        assert len(log) - hits == len(first), case
    # Nothing kept reaches a checkpoint: the files are the reference's
    # bytes (above), and none names the memo.
    assert retained["checkpoints"], case
    for name, blob in retained["checkpoints"].items():
        assert PrefixMemo.__name__.encode() not in blob, (name, case)
    return deployment, log


def test_the_properties_above_are_not_vacuous():
    """Over the generated cases: re-reads happen, most start from a
    kept prefix, raw chunks are dropped, statistics are recomputed."""
    cases = [
        draw_case(seed, dataset, approach)
        for seed in SEEDS
        for dataset in SCENARIOS
        for approach in APPROACHES
    ]
    assert sum(case["raw_capacity"] is not None for case in cases) >= 6
    assert {case["sampler"] for case in cases} == {"uniform", "window", "time"}
    assert {case["online_statistics"] for case in cases} == {True, False}
    rereads = hits = 0
    for case in cases[::5]:
        _, log, _ = run(case)
        rereads += len(log)
        hits += sum(hit for _, hit, _ in log)
    assert rereads > 100 and hits > rereads // 2


# ----------------------------------------------------------------------
# Lifetime
# ----------------------------------------------------------------------
@pytest.mark.parametrize("approach", APPROACHES)
@pytest.mark.parametrize("dataset", sorted(SCENARIOS))
@pytest.mark.parametrize("seed", SEEDS[:2], ids=lambda s: f"seed{s}")
def test_killed_and_recovered_run_refills_lazily(
    tmp_path, seed, dataset, approach
):
    case = draw_case(seed, dataset, approach)
    _, _, uninterrupted = run(case, tmp_path / "uninterrupted")
    kill = int(
        ensure_rng([seed, 99]).integers(case["cadence"] + 1, case["n"] + 1)
    )
    with pytest.raises(SimulatedCrash):
        run(
            case,
            tmp_path / "killed",
            fault_plan=FaultPlan.crash_at(STREAM_READ, kill),
        )

    scenario, deployment, telemetry = build(case, tmp_path / "killed")
    log = watch_rereads(deployment)
    storage, restored = deployment.data_manager.storage, set()
    restore = storage.restore

    def watched_restore(raw, features, stats):
        restored.update(chunk.timestamp for chunk in raw)
        restore(raw, features, stats)

    storage.restore = watched_restore
    result = deployment.recover(islice(scenario.make_stream(), case["n"]))
    recovered = outcome(
        deployment, result, telemetry, log, tmp_path / "killed"
    )
    # The crashed process's re-reads and events are not this one's,
    # an envelope written after a recovery says so, and an unpickled
    # component pickles to other bytes (strings it held once, it now
    # holds twice): its fingerprint is compared.
    assert_same(
        recovered,
        uninterrupted,
        (case, kill),
        skip=("rereads", "events", "checkpoints", "components"),
    )
    tail = uninterrupted["rereads"][-len(log) :] if log else []
    assert recovered["rereads"] == tail, (case, kill)
    # Nothing kept came back with the checkpoint: a chunk stored before
    # the crash is computed again on its first re-read after the
    # recovery. One the recovered process stored itself was kept by
    # its step, if the store can evict.
    assert restored, (case, kill)
    first = {}
    for timestamp, hit, _ in log:
        expected = seeds(case) and timestamp not in restored
        assert first.setdefault(timestamp, hit) is expected, (case, kill)


def url_manager(pipeline, width, **storage):
    return PipelineManager(
        pipeline=pipeline,
        model=LinearSVM(width),
        optimizer=Adam(0.05),
        data_manager=DataManager(storage=ChunkStorage(**storage), seed=0),
        engine=LocalExecutionEngine(),
    )


def pipeline_reading(column, width=32):
    return Pipeline(
        [
            SvmLightParser(column, name=PARSER),
            SparseMeanImputer(name="imputer"),
            SparseStandardScaler(name="scaler"),
            FeatureHasher(width, name="hasher"),
        ]
    )


@pytest.mark.parametrize("capacity", [1, 3, 7])
def test_at_most_raw_capacity_prefixes_are_held(capacity):
    generator = URLStreamGenerator(num_chunks=20, rows_per_chunk=6, seed=1)
    manager = url_manager(
        make_url_pipeline(32), 32, max_materialized=0, raw_capacity=capacity
    )
    storage = manager.data_manager.storage
    for index in range(20):
        manager.process_training_chunk(generator.chunk(index))
        manager.sample_for_training(capacity)
        assert 0 < len(storage._derived) <= capacity
        assert set(storage._derived) <= set(storage.raw_timestamps)
    manager.full_retrain(max_iterations=2)
    assert set(storage._derived) == set(storage.raw_timestamps)


def test_replaced_artifacts_parse_again(parser_runs):
    """Two text columns, two pipelines that each parse one: after
    ``replace_artifacts`` a re-read is the new pipeline's own."""
    generator = URLStreamGenerator(num_chunks=8, rows_per_chunk=6, seed=2)
    tables = [
        Table(
            {
                "line": generator.chunk(i).column("line"),
                "other": generator.chunk(i + 4).column("line"),
            }
        )
        for i in range(4)
    ]
    manager = url_manager(pipeline_reading("line"), 32, max_materialized=0)
    storage = manager.data_manager.storage
    for table in tables:
        manager.process_training_chunk(table)
    manager.sample_for_training(4)
    manager.sample_for_training(4)
    # Each chunk was parsed once, by the step that stored it.
    assert parser_runs[PARSER] == len(storage._derived) == 4

    other = pipeline_reading("other")
    for table in tables:
        other.update_transform(table)
    expected = {
        index: features_bytes(other.transform(copy_of(table)))
        for index, table in enumerate(tables)
    }
    manager.replace_artifacts(other, LinearSVM(32), Adam(0.05))
    assert len(storage._derived) == 0
    parser_runs.clear()
    for sampled in manager.sample_for_training(4):
        chunk = sampled.chunk
        assert not sampled.was_materialized
        assert (
            features_bytes(Features(chunk.features, chunk.labels))
            == expected[chunk.timestamp]
        )
    assert parser_runs[PARSER] == len(storage._derived) > 0


def test_a_step_that_answered_other_rows_keeps_its_own_parse(parser_runs):
    """Query batches that are not the training chunk (a serving
    endpoint's traffic) leave the step a memo of other rows: the chunk
    stored keeps a prefix of its own table, never that memo."""
    generator = URLStreamGenerator(num_chunks=8, rows_per_chunk=6, seed=3)
    manager = url_manager(make_url_pipeline(32), 32, max_materialized=0)
    storage = manager.data_manager.storage
    for index in range(4):
        manager.answer_queries(generator.chunk(index + 4))
        manager.process_training_chunk(generator.chunk(index))
    assert parser_runs[PARSER] == 8
    for timestamp, memo in storage._derived.items():
        assert memo.source is storage.peek_raw(timestamp).table
    assert manager.sample_for_training(4)
    assert parser_runs[PARSER] == 8


def test_only_the_frozen_stored_object_has_anything_kept_beside_it():
    storage = ChunkStorage()
    manager = DataManager(storage=storage)
    table = Table({"a": np.arange(4.0), "b": np.arange(4.0)})
    assert not table.frozen
    stored = manager.ingest(table)
    assert table.frozen
    with pytest.raises(ValueError, match="read-only"):
        table.column("a")[0] = 1.0

    kept = storage.derived(stored, PrefixMemo)
    assert storage.derived(stored, PrefixMemo) is kept
    twin = RawChunk(stored.timestamp, copy_of(table))
    assert storage.derived(twin, PrefixMemo) is not kept
    stranger = RawChunk(7, table)
    assert storage.derived(stranger, PrefixMemo) is not kept
    assert len(storage._derived) == 1

    # A stored table someone thawed: identity no longer stands for
    # content, so nothing is kept (and what was, is not handed out).
    table.column("b").setflags(write=True)
    assert storage.derived(stored, PrefixMemo) is not kept

    # Not persisted, and gone after a restore (which freezes again).
    assert "derived" not in repr(storage.manifest())
    storage.restore([pickle.loads(pickle.dumps(stored))], [], asdict(storage.stats))
    assert len(storage._derived) == 0
    assert storage.peek_raw(stored.timestamp).table.frozen


def test_freezing_a_table_moves_no_pickled_byte():
    """Pickle writes a read-only array differently; a checkpoint spills
    stored (frozen) tables and its bytes are the parent commit's."""
    table = Table(
        {
            "x": np.arange(5.0),
            "n": np.arange(5),
            "line": np.array(["+1 3:0.5", "-1", "+1 9:nan", "", "x"], object),
        }
    )
    before = pickle.dumps(table, pickle.HIGHEST_PROTOCOL)
    table.freeze()
    assert pickle.dumps(table, pickle.HIGHEST_PROTOCOL) == before
    loaded = pickle.loads(before)
    assert loaded == table and not loaded.frozen and table.frozen


# ----------------------------------------------------------------------
# Transient faults
# ----------------------------------------------------------------------
def expected_retries(reads, faulty, max_attempts):
    """``(retries, exhausted)`` of ``reads`` guarded reads when the
    occurrences in ``faulty`` fail (a retry is the next occurrence)."""
    occurrence, retries = 0, 0
    for _ in range(reads):
        for attempt in range(max_attempts):
            occurrence += 1
            if occurrence not in faulty:
                break
            if attempt == max_attempts - 1:
                return retries, True
            retries += 1
    return retries, False


@pytest.mark.parametrize("approach", APPROACHES)
@pytest.mark.parametrize("dataset", sorted(SCENARIOS))
@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
def test_transient_read_faults_are_absorbed_or_named(seed, dataset, approach):
    case = draw_case(seed, dataset, approach)
    if case["approach"] == "continuous" and case["m"] is None:
        case["m"] = 1  # everything cached: nothing would be read
    _, log, clean = run(case)
    rng = ensure_rng(
        [seed, 17, dataset == "url", APPROACHES.index(approach)]
    )
    faulty = set()
    for _ in range(int(rng.integers(1, 4))):  # bursts of 1-2 failures
        start = int(rng.integers(1, len(log) + 1))
        faulty.update(range(start, start + int(rng.integers(1, 3))))
    policy = RetryPolicy(
        max_attempts=int(rng.integers(1, 5)),
        jitter=float(rng.choice([0.0, 0.3, 1.0])),
        seed=seed,
    )
    plan = FaultPlan.of(
        *(FaultSpec(STORAGE_READ, o, "io_error") for o in sorted(faulty))
    )
    context = (case, sorted(faulty), policy)
    retries, exhausted = expected_retries(
        len(log), faulty, policy.max_attempts
    )

    scenario, deployment, telemetry = build(
        case, fault_plan=plan, retry=policy
    )
    faulty_log = watch_rereads(deployment)
    scenario.fit(deployment)
    stream = islice(scenario.make_stream(), case["n"])
    retrier = deployment.reliability.retrier
    if exhausted:
        with pytest.raises(RetryExhausted, match=STORAGE_READ):
            deployment.run(stream)
        # Nothing half-retained: every entry is a whole prefix of the
        # table stored under its timestamp.
        storage = deployment.data_manager.storage
        for timestamp, kept in storage._derived.items():
            assert kept.source is storage.peek_raw(timestamp).table, context
            assert kept.output is not None, context
    else:
        result = deployment.run(stream)
        absorbed = outcome(deployment, result, telemetry, faulty_log)
        # The retries are trace points and counters of their own.
        assert_same(absorbed, clean, context, skip=("events",))
    assert retrier.retries == retries, context
    assert (retrier.total_delay > 0.0) == (retries > 0), context

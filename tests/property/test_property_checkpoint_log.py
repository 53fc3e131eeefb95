"""Generated properties of incremental (delta) checkpoints.

A checkpoint writes what changed: the lineage ledger's entries, the
monitor's snapshots and resolved incidents, the deployment's error and
cost histories and the platform's proactive outcomes are append-only
logs, handed to the store as live lists and spilled as
``log[spilled:]`` into the first section of the checkpoint's file
(keyed by log name under ``logs``, beside the raw chunks); the
envelope carries segment refs, ``(file, offset, size)``. For random
cadence × keep × monitor window × approach (deployment loop ``online``
and ``continuous``, platform, fleet, and the four approaches whose
trigger has state or fires often: ``periodical``, ``threshold``,
``drift`` — continuous plus a drift rule — and ``none``, a platform
with no regular schedule whose only rule is a degradation trigger;
each configured so that the trigger fires on both sides of the
recovery) × crash plan (one or two
kills, at ``stream.read`` or at ``checkpoint.write`` — before its
one staged file — optionally with the newest surviving envelope
corrupted):

* the recovered run ends on the uninterrupted run's ``lineage.json``
  bytes, ``health.json`` content, result histories and metrics
  snapshot;
* a crash at ``checkpoint.write`` leaves nothing of that cursor on
  disk; the recovered run writes it, its logs the older checkpoint's
  segments and one new one;
* a corrupted newest envelope falls back, and the logs come back from
  the older checkpoint's refs alone (the newer one's own sections are
  spoiled first);
* after *every* write, the store's refs of each retained checkpoint
  are the ones its envelope names, every section they reference is
  on disk, every other file is cut to exactly the sections still
  named (and a file nothing names is gone), the envelope's state holds
  no log (no ledger entry, snapshot, history or outcome, and the
  monitor's incidents from the first open one on), and each log's
  segments concatenate to the live log with
  the newest section holding exactly what was appended since the
  write before;
* a run without telemetry spills nothing but chunks and its own
  logs, and adds no state key.

``health.json`` is compared without the ``seq`` of incident evidence
(and so without the digest over it): event numbering restarts with the
process, as it did before this test existed; virtual times, names and
attributes are compared. The ``crash-recovered`` rule is left out, as
in ``tests/core/test_platform.py``: the crash is the one thing a
recovered timeline rightly shows and an uninterrupted one cannot.

Everything is drawn from a ``repro.utils.rng`` seed; a failure names
the seed, approach and plan, and ``pytest
tests/property/test_property_checkpoint_log.py -k "<approach>-seed<N>"``
replays it.
"""

import json
import struct
from dataclasses import replace
from itertools import islice

import pytest

from repro.core.config import ContinuousConfig, ScheduleConfig
from repro.core.deployment import (
    ContinuousDeployment,
    FullRetrainingDeployment,
)
from repro.core.platform import ContinuousDeploymentPlatform, TrainingRule
from repro.core.proactive import ProactiveOutcome
from repro.core.scheduler import DegradationTrigger
from repro.data.sampling import WindowBasedSampler
from repro.data.table import Table
from repro.driftdetect import DriftTrigger, PageHinkley
from repro.exceptions import ReliabilityError
from repro.experiments.common import make_deployment, url_scenario
from repro.fleet import FleetOrchestrator, make_fleet
from repro.fleet.alerts import fleet_rules
from repro.ml.metrics import errors_from_predictions
from repro.ml.models import LinearRegression
from repro.ml.optim import Adam
from repro.obs import Telemetry, names
from repro.obs.monitor import MonitorConfig, default_rules
from repro.pipeline.components.assembler import FeatureAssembler
from repro.pipeline.components.scaler import StandardScaler
from repro.pipeline.pipeline import Pipeline
from repro.reliability import (
    CheckpointConfig,
    CheckpointStore,
    FaultInjector,
    FaultPlan,
    PlatformCheckpoint,
    SimulatedCrash,
)
from repro.utils.rng import ensure_rng

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.exceptions.ConvergenceWarning"
)

SEEDS = range(4)
#: Appended to, never reordered: a case's draws are seeded by position.
APPROACHES = (
    "online",
    "continuous",
    "platform",
    "fleet",
    "periodical",
    "threshold",
    "drift",
    "none",
)
#: The approaches with a trigger worth killing.
TRIGGERED = APPROACHES[4:]
#: The approaches a test feeds chunk by chunk (a platform or a fleet).
FED = ("platform", "fleet", "none")
SCENARIO = url_scenario("test")
#: Full retrainings every other chunk, five iterations each.
RETRAINING = replace(
    SCENARIO.periodical_config,
    retrain_every_chunks=2,
    max_epoch_iterations=5,
)
FLEET = make_fleet(3, seed=5, chunks=12, rows=8)
PLATFORM_CONFIG = ContinuousConfig(
    sample_size_chunks=2,
    schedule=ScheduleConfig(kind="static", interval_chunks=3),
)
NO_SCHEDULE_CONFIG = replace(
    PLATFORM_CONFIG, schedule=ScheduleConfig(kind="none")
)
#: Stream length in checkpoint-cursor units, per approach.
STEPS = {
    **dict.fromkeys(APPROACHES, SCENARIO.num_chunks),
    "platform": 30,
    "none": 30,
    "fleet": FLEET.epochs,
    # The stream stops degrading after chunk 23: nothing fires there.
    "threshold": 24,
}
#: The toy platforms' whole runs cost ~0.002 virtual units, the
#: others ~0.25: monitor windows are drawn on that scale.
CLOCK_SCALE = {
    **dict.fromkeys(APPROACHES, 1),
    "platform": 0.01,
    "none": 0.01,
}


def attached(approach, window):
    telemetry = Telemetry()
    telemetry.attach_ledger()
    rules = (
        fleet_rules()
        if approach == "fleet"
        else [
            rule
            for rule in default_rules()
            if rule.signal != names.RELIABILITY_RECOVERED
        ]
    )
    telemetry.attach_monitor(
        rules=rules, config=MonitorConfig(window=window)
    )
    return telemetry


def platform_chunks(approach):
    """The toy platforms' stream. For ``none`` the slope grows every
    chunk, so the errors of a model one proactive iteration a firing
    cannot keep up with keep rising and the degradation rule fires."""
    rng = ensure_rng(11)
    growth = 0.5 if approach == "none" else 0.0
    return [
        Table({"x": x, "y": (2.0 + growth * step) * x})
        for step, x in enumerate(rng.standard_normal((STEPS[approach], 6)))
    ]


def toy_platform(approach):
    """The toy platform's configuration and rules: the static schedule
    (``platform``), or no schedule and one degradation rule (``none``),
    with what to read after the run as the chunks that rule fired at."""
    if approach == "platform":
        return PLATFORM_CONFIG, [], list
    trigger = DegradationTrigger(
        tolerance_ratio=0.05,
        window_chunks=1,
        cooldown_chunks=0,
        min_absolute_delta=0.0,
    )
    return (
        NO_SCHEDULE_CONFIG,
        [TrainingRule(trigger)],
        lambda: trigger.retrain_chunks,
    )


def loop_deployment(approach, **options):
    """A deployment-loop approach, and a function listing the chunks a
    :data:`TRIGGERED` one's trigger fired at (read after the run; the
    static schedule's are arithmetic)."""
    if approach not in TRIGGERED:
        return make_deployment(SCENARIO, approach, **options), list
    parts = (
        SCENARIO.make_pipeline(),
        SCENARIO.make_model(),
        SCENARIO.make_optimizer(),
    )
    options.update(metric=SCENARIO.metric, seed=SCENARIO.seed)
    if approach == "drift":
        trigger = DriftTrigger(
            PageHinkley(threshold=1.0, minimum_observations=10),
            delay_chunks=2,
            telemetry=options["telemetry"],
        )
        return (
            ContinuousDeployment(
                *parts,
                config=SCENARIO.continuous_config,
                rules=[TrainingRule(trigger, WindowBasedSampler(3), 2)],
                **options,
            ),
            lambda: trigger.drift_chunks,
        )
    trigger = (
        DegradationTrigger(
            tolerance_ratio=0.05,
            window_chunks=3,
            cooldown_chunks=2,
            min_absolute_delta=0.0,
        )
        if approach == "threshold"
        else None
    )
    deployment = FullRetrainingDeployment(
        *parts,
        config=RETRAINING,
        trigger=trigger,
        online_batch_rows=SCENARIO.online_batch_rows,
        **options,
    )
    if trigger is None:
        return deployment, lambda: list(range(1, STEPS[approach], 2))
    return deployment, lambda: trigger.retrain_chunks


def drive(approach, telemetry, store, injector, resume, limit=None):
    """Run (or resume) one incarnation to the end of the stream, to
    ``limit`` steps (then abandoned, as a kill would leave it) or into
    an injected :class:`SimulatedCrash`; returns the result histories
    (and, last, a :data:`TRIGGERED` approach's firing chunks)."""
    if approach not in FED:
        deployment, fired = loop_deployment(
            approach,
            telemetry=telemetry,
            checkpoint=store,
            fault_plan=injector,
        )
        stream = islice(SCENARIO.make_stream(), STEPS[approach])
        if resume:
            result = deployment.recover(stream)
        else:
            SCENARIO.fit(deployment)
            result = deployment.run(stream)
        return [result.error_history, result.cost_history, fired()]
    if approach in ("platform", "none"):
        config, rules, fired = toy_platform(approach)
        if resume:
            platform = ContinuousDeploymentPlatform.recover(
                store, config=config, telemetry=telemetry, rules=rules
            )
        else:
            platform = ContinuousDeploymentPlatform(
                pipeline=Pipeline(
                    [
                        StandardScaler(["x"], name="scaler"),
                        FeatureAssembler(["x"], "y", name="assembler"),
                    ]
                ),
                model=LinearRegression(num_features=1),
                optimizer=Adam(0.05),
                config=config,
                seed=0,
                telemetry=telemetry,
                checkpoint=store,
                rules=rules,
            )
        chunks = platform_chunks(approach)
        for table in chunks[platform.chunks_observed : limit]:
            predictions, labels = platform.predict(table)
            platform.record_errors(
                errors_from_predictions("rmse", predictions, labels)
            )
            platform.observe(table)
        return [
            platform.engine.total_cost(),
            [o.objective for o in platform.proactive_outcomes],
            fired(),
        ]
    if resume:
        fleet = FleetOrchestrator.recover(store, telemetry=telemetry)
    else:
        fleet = FleetOrchestrator(FLEET, telemetry=telemetry, checkpoint=store)
        fleet.setup()
    while fleet.has_work() and (limit is None or fleet.epoch < limit):
        fleet.run_epoch()
    return [fleet.digest(), fleet.schedule_log]


def artifacts(telemetry, histories, directory):
    """What a finished run leaves, as comparable bytes."""
    telemetry.ledger.write(directory / "lineage.json")
    telemetry.monitor.flush()
    health = telemetry.monitor.health()
    del health["digest"]
    for incident in health["incidents"]:
        for evidence in incident["evidence"]:
            evidence.pop("seq", None)

    def canonical(value):
        return json.dumps(value, sort_keys=True, allow_nan=False)

    return {
        "lineage.json": (directory / "lineage.json").read_bytes(),
        "health.json": canonical(health),
        "histories": canonical(histories),
        "metrics": canonical(telemetry.metrics.snapshot()),
    }


# ----------------------------------------------------------------------
# The store under observation
# ----------------------------------------------------------------------
def looks_like_log_entry(value):
    if isinstance(value, ProactiveOutcome):
        return True
    return isinstance(value, dict) and (
        {"e", "seq", "t"} <= value.keys()  # a ledger entry
        or {"window", "t_end", "signals"} <= value.keys()  # a snapshot
    )


#: The state keys of what only grows: a checkpoint keeps them as logs.
#: (A fleet's tenants carry theirs inline, under ``tenants``.)
LOG_KEYS = {
    "error_history",
    "cost_history",
    "history",
    "proactive_outcomes",
    "snapshots",
    "entries",
    "resolved_incidents",
}
#: The logs an owner keeps (telemetry's are ``monitor``, ``incidents``
#: and ``lineage``).
OWNER_LOGS = {"error_history", "cost_history", "proactive_outcomes"}


def without_tenants(state):
    """A checkpoint's state, a fleet's tenants left out."""
    return {key: value for key, value in state.items() if key != "tenants"}


def state_keys(value):
    """Every dict key in ``value``."""
    for child in walk(value):
        if isinstance(child, dict):
            yield from child


def walk(value):
    yield value
    if isinstance(value, dict):
        for child in value.values():
            yield from walk(child)
    elif isinstance(value, (list, tuple)):
        for child in value:
            yield from walk(child)


def observed_store(config, telemetry, injector):
    """A store that checks the on-disk invariants after every write.

    What "the checkpoint before" held is read back from disk (the
    newest envelope that loads), never from the store's own index."""
    store = CheckpointStore(
        config, telemetry=telemetry, fault_injector=injector
    )
    write = store.write

    def segments(refs, key):
        return [
            store._load_section(ref)["logs"][key] for ref in refs.get(key, [])
        ]

    def checked_write(checkpoint, storage=None, logs=None):
        logs = logs or {}
        try:
            before = CheckpointStore(config).load_latest().logs or {}
        except ReliabilityError:
            before = {}
        path = write(checkpoint, storage=storage, logs=logs)
        retained = store.checkpoints()
        assert path in retained and len(retained) <= store.keep
        assert list(store.retained) == retained
        ends = {}
        for kept, refs in store.retained.items():
            assert refs == store.references(store.load(kept))
            for name, offset, size in refs:
                ends[name] = max(ends.get(name, 0), offset + size)
        for path_on_disk in store.directory.iterdir():
            if path_on_disk not in store.retained:
                assert path_on_disk.stat().st_size == ends[path_on_disk.name]
            ends.pop(path_on_disk.name, None)
        assert not ends  # every section named is on disk
        saved = store.load(path)
        state = without_tenants(saved.state)
        assert not any(
            looks_like_log_entry(v) for v in walk([state, saved.manifest])
        )
        assert not LOG_KEYS & set(state_keys(state))
        # The monitor keeps incidents from the first open one on; the
        # resolved prefix before it is a log.
        head = state["monitor"]["incidents"]["incidents"]
        assert not head or head[0]["data"]["state"] != "resolved"
        assert set(saved.logs or {}) == set(logs)
        for key, log in logs.items():
            assert sum(segments(saved.logs, key), []) == log
            # Earlier segments are referenced, never rewritten; what
            # was appended since is the one new pack, if anything was.
            old = before.get(key, [])
            assert saved.logs[key][: len(old)] == old
            appended = len(log) - sum(map(len, segments(before, key)))
            assert [len(s) for s in segments(saved.logs, key)[len(old) :]] == (
                [appended] if appended else []
            )
        return path

    store.write = checked_write
    return store


# ----------------------------------------------------------------------
def draw_kill(rng, cursor, steps, cadence):
    """``(site, occurrence, cursor of the newest checkpoint left)`` for
    an incarnation starting at ``cursor`` that writes at least one
    checkpoint before it dies."""
    if rng.random() < 0.5:
        # Dies inside its j-th checkpoint write: nothing of it on disk.
        occurrence = int(rng.integers(2, (steps - cursor) // cadence + 1))
        return (
            "checkpoint.write",
            occurrence,
            cursor + (occurrence - 1) * cadence,
        )
    kill = int(rng.integers(cursor + cadence, steps))
    return "stream.read", kill - cursor + 1, kill - kill % cadence


def corrupt_newest(store):
    """Flip a byte of the newest envelope and of each section only it
    references: the fallback may need the older checkpoint's refs
    alone."""
    older, newest = store.checkpoints()[-2:]
    refs = store.retained
    blob = bytearray(newest.read_bytes())
    for name, offset, size in sorted(refs[newest] - refs[older]):
        assert name == newest.name
        blob[offset + size // 2] ^= 0xFF
    (envelope,) = struct.unpack(">Q", blob[-21:-13])
    blob[(envelope + len(blob) - 21) // 2] ^= 0xFF
    newest.write_bytes(bytes(blob))


@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
@pytest.mark.parametrize("approach", APPROACHES)
def test_recovered_run_ends_on_the_uninterrupted_runs_bytes(
    tmp_path, approach, seed
):
    rng = ensure_rng([seed, APPROACHES.index(approach)])
    steps = STEPS[approach]
    cadence = int(rng.integers(2, 5))
    keep = int(rng.integers(1, 4))
    window = float(rng.choice([5e-4, 2e-3, 1e-2])) * CLOCK_SCALE[approach]

    def incarnation(name, injector=None, fired_by_store=False):
        telemetry = attached(approach, window)
        if injector is not None:
            injector.telemetry = telemetry
        store = observed_store(
            CheckpointConfig(
                tmp_path / name, cadence_chunks=cadence, keep=keep
            ),
            telemetry,
            injector if fired_by_store else None,
        )
        return telemetry, store

    telemetry, store = incarnation("reference")
    reference = artifacts(
        telemetry,
        drive(approach, telemetry, store, None, resume=False),
        tmp_path,
    )
    assert len(telemetry.monitor.snapshots) > 3
    if approach not in ("online", "periodical", "threshold"):
        assert len(telemetry.ledger) > 10  # those record no lineage
    assert len(store.load_latest().logs["monitor"]) > 1

    cursor, plan = 0, []
    for number in range(int(rng.integers(1, 3))):
        if (steps - cursor) // cadence < 2:
            break
        site, occurrence, survives = draw_kill(rng, cursor, steps, cadence)
        plan.append((site, occurrence))
        fired_by_store = site == "checkpoint.write"
        injector = FaultInjector(FaultPlan.crash_at(site, occurrence))
        telemetry, store = incarnation("crashed", injector, fired_by_store)
        if fired_by_store or approach not in FED:
            with pytest.raises(SimulatedCrash):
                drive(
                    approach,
                    telemetry,
                    store,
                    None if fired_by_store else injector,
                    resume=number > 0,
                )
        else:  # a fed approach's feeder stops instead
            drive(
                approach,
                telemetry,
                store,
                None,
                resume=number > 0,
                limit=cursor + occurrence - 1,
            )
        context = (
            f"{approach} seed {seed}: cadence {cadence}, keep {keep}, "
            f"window {window}, plan {plan}"
        )
        assert store.checkpoints()[-1].name == (
            f"ckpt-{survives:08d}.ckpt"
        ), context
        cursor = survives
        if len(store.checkpoints()) > 1 and rng.random() < 0.4:
            plan.append("newest envelope corrupted")
            corrupt_newest(store)
            cursor -= cadence

    telemetry, store = incarnation("crashed")
    histories = drive(approach, telemetry, store, None, resume=True)
    recovered = artifacts(telemetry, histories, tmp_path / "crashed")
    for name, expected in reference.items():
        assert recovered[name] == expected, f"{name}: {context}"
    if approach in TRIGGERED:
        # The trigger's state crossed the process boundary and the
        # restored trigger went on to fire.
        fired = histories[-1]
        assert fired[0] < cursor <= fired[-1], f"{fired}: {context}"


@pytest.mark.parametrize("approach", APPROACHES[:4])
def test_crashed_write_is_rewritten_onto_its_own_pack(tmp_path, approach):
    """Killed inside the write of cursor 9 with everything retained:
    nothing of that cursor is on disk before the recovery (its file is
    staged whole, then renamed), and afterwards its logs are what
    cursor 6 had and at most one segment in its own file."""
    window = 2e-3 * CLOCK_SCALE[approach]
    config = CheckpointConfig(tmp_path, cadence_chunks=3, keep=100)
    telemetry = attached(approach, window)
    injector = FaultInjector(
        FaultPlan.crash_at("checkpoint.write", 3), telemetry
    )
    with pytest.raises(SimulatedCrash):
        drive(
            approach,
            telemetry,
            observed_store(config, telemetry, injector),
            None,
            resume=False,
        )
    assert not (tmp_path / "ckpt-00000009.ckpt").exists()
    assert not list(tmp_path.glob("*.tmp"))

    telemetry = attached(approach, window)
    store = observed_store(config, telemetry, None)
    drive(approach, telemetry, store, None, resume=True)
    six = store.load(tmp_path / "ckpt-00000006.ckpt").logs
    nine = store.load(tmp_path / "ckpt-00000009.ckpt").logs
    assert six != nine
    for key in nine:
        old, new = nine[key][: len(six[key])], nine[key][len(six[key]) :]
        assert old == six[key]
        assert [ref[0] for ref in new] in ([], ["ckpt-00000009.ckpt"])


@pytest.mark.parametrize("approach", APPROACHES[:4])
def test_without_telemetry_packs_hold_chunks_only_and_no_key_is_new(
    tmp_path, approach
):
    store = CheckpointStore(
        CheckpointConfig(tmp_path, cadence_chunks=4, keep=2)
    )
    drive(approach, None, store, None, resume=False)
    saved = store.load_latest()
    assert set(saved.logs or {}) <= OWNER_LOGS  # the fleet keeps none
    assert not {"metrics", "monitor", "lineage"} & set(saved.state)
    for ref in store.references(saved):
        section = store._load_section(ref)
        assert set(section) <= {"raw", "features", "logs"}
        assert set(section.get("logs", {})) <= OWNER_LOGS
    refs = store.retained[store.checkpoints()[-1]]
    assert refs == set(
        (saved.manifest or {"sections": []})["sections"]
    ).union(*(saved.logs or {}).values())


def test_a_log_that_shrank_is_refused(tmp_path):
    store = CheckpointStore(tmp_path)
    log = [{"n": 1}, {"n": 2}]
    store.write(PlatformCheckpoint(1, "fleet", None), logs={"log": log})
    del log[1:]
    with pytest.raises(ReliabilityError, match="append-only"):
        store.write(PlatformCheckpoint(2, "fleet", None), logs={"log": log})

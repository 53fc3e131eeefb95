"""Generated properties of the training triggers.

**Decision identity.** The threshold and drift-aware approaches used to
be deployment subclasses that kept their own bookkeeping across
``_predict`` / ``_observe`` / ``_should_retrain`` / ``_retrain``; that
bookkeeping, minus the training itself, is kept here as the reference
(:class:`ReferenceThreshold`, :class:`ReferenceDriftAware` — moved from
``core/deployment/threshold.py`` and ``driftdetect/deployment.py``).
Over generated chunks — error rates anywhere in [0, 1], abrupt shifts,
empty chunks, ``window_chunks=1``, ``cooldown_chunks=0``, ``delay=0``,
a drift signalled while a burst is pending, all three detectors —
:class:`DegradationTrigger` and :class:`DriftTrigger`, driven the way
the deployment loop drives them, fire at exactly the reference's chunk
indices, emit the same ``drift.*`` points and end on an equal window /
baseline / countdown.

**Split invariance.** For each of the four triggers and a generated
interleaving of ``record_predictions`` / ``record_errors`` /
``should_train`` / ``record_training``: ``state_dict()`` at a random
point, loaded into a fresh trigger of the same configuration, continues
to the same decisions and the same final ``state_dict()``; the captured
dict pickles and is not moved by feeding the live trigger afterwards.

**The fleet's drift score.** A fleet tenant used to keep every measured
chunk's mean error in a private list and score drift over its tail
(:func:`reference_drift_score`, moved from ``fleet/tenant.py``). Its
:class:`GrantTrigger` keeps only the last six. Over generated chunk
streams — empty chunks, all-zero windows, windows whose mean is at or
below ``1e-9`` without being zero — with slots armed and fired,
trainings recorded and ``state_dict`` round-trips at random points,
the grant's score equals the reference's bit for bit after every chunk.

Everything is drawn from ``repro.utils.rng`` seeds; a failure names the
seed and the configuration, and ``pytest
tests/property/test_property_triggers.py -k "seed<N>"`` replays it.
"""

import copy
import pickle
from collections import deque

import numpy as np
import pytest

from repro.core.scheduler import (
    DegradationTrigger,
    DynamicScheduler,
    StaticScheduler,
)
from repro.driftdetect import (
    DriftState,
    DriftTrigger,
    PageHinkley,
    WindowComparisonDetector,
)
from repro.fleet.triggers import GrantTrigger
from repro.ml.metrics import PrequentialTracker, errors_from_predictions
from repro.obs import Telemetry, names
from repro.utils.rng import ensure_rng

SEEDS = range(8)
DETECTORS = ("page_hinkley", "window")


# ----------------------------------------------------------------------
# The replaced bookkeeping, kept as the reference
# ----------------------------------------------------------------------
class ReferenceThreshold:
    """``ThresholdRetrainingDeployment`` without the deployment."""

    def __init__(
        self,
        kind,
        tolerance_ratio,
        window_chunks,
        cooldown_chunks,
        min_absolute_delta,
    ):
        self.kind = kind
        self.tolerance_ratio = float(tolerance_ratio)
        self.window_chunks = int(window_chunks)
        self.cooldown_chunks = int(cooldown_chunks)
        self.min_absolute_delta = float(min_absolute_delta)
        self._window = deque(maxlen=self.window_chunks)
        self._baseline = None
        self._chunks_since_retrain = 0
        self.retrain_chunks = []

    def _predict(self, predictions, labels):
        if len(labels):
            errors = errors_from_predictions(self.kind, predictions, labels)
            self._window.append(float(np.sum(errors)) / len(labels))

    def _observe(self, chunk_index):
        self._chunks_since_retrain += 1
        if self._should_retrain(chunk_index):
            self._retrain(chunk_index)

    def _should_retrain(self, chunk_index):
        if len(self._window) < self.window_chunks:
            return False
        if self._chunks_since_retrain < self.cooldown_chunks:
            return False
        current = self.windowed_error()
        if self._baseline is None:
            self._baseline = current
            return False
        degraded_relative = current > self._baseline * (
            1.0 + self.tolerance_ratio
        )
        degraded_absolute = (
            current - self._baseline > self.min_absolute_delta
        )
        return degraded_relative and degraded_absolute

    def _retrain(self, chunk_index):
        self.retrain_chunks.append(chunk_index)
        self._chunks_since_retrain = 0
        self._window.clear()
        self._baseline = None

    def windowed_error(self):
        if not self._window:
            return 0.0
        return float(np.mean(self._window))


class ReferenceDriftAware:
    """``DriftAwareContinuousDeployment`` without the deployment: a
    burst is the chunk index it would have run at."""

    def __init__(self, kind, detector, burst_delay_chunks):
        self.kind = kind
        self.detector = detector
        self.burst_delay_chunks = int(burst_delay_chunks)
        self.drift_chunks = []
        self.points = []
        self.bursts = []
        self._burst_countdown = None
        self._chunk_index = -1

    def _predict(self, predictions, labels):
        if len(labels):
            state = self.detector.update_many(
                errors_from_predictions(self.kind, predictions, labels)
            )
            if state is not DriftState.STABLE:
                self._record_drift_telemetry(state)
            if (
                state is DriftState.DRIFT
                and self._burst_countdown is None
            ):
                self.drift_chunks.append(self._chunk_index + 1)
                self._burst_countdown = self.burst_delay_chunks

    def _record_drift_telemetry(self, state):
        event = (
            names.DRIFT_SIGNAL
            if state is DriftState.DRIFT
            else names.DRIFT_WARNING
        )
        self.points.append((event, self._chunk_index + 1, state.name))

    def _observe(self, chunk_index):
        self._chunk_index = chunk_index
        if self._burst_countdown is not None:
            if self._burst_countdown == 0:
                self._burst_countdown = None
                self.bursts.append(chunk_index)
            else:
                self._burst_countdown -= 1


# ----------------------------------------------------------------------
# Generated streams
# ----------------------------------------------------------------------
def draw_chunks(rng, kind, num_chunks):
    """``(predictions, labels)`` per chunk: a level (error rate, or
    residual scale) that wanders over its whole range and jumps at a
    few abrupt shifts; roughly one chunk in eight comes out empty."""
    shifts = set(
        rng.choice(num_chunks, size=int(rng.integers(1, 4)), replace=False)
    )
    level = float(rng.random())
    chunks = []
    for index in range(num_chunks):
        if index in shifts:
            level = float(rng.choice([0.0, 1.0, rng.random()]))
        else:
            level = float(np.clip(level + rng.normal(0.0, 0.05), 0.0, 1.0))
        rows = 0 if rng.random() < 0.125 else int(rng.integers(1, 30))
        if kind == "rate":
            labels = rng.choice([-1.0, 1.0], size=rows)
            wrong = rng.random(rows) < level
            predictions = np.where(wrong, -labels, labels)
        else:
            labels = rng.normal(0.0, 1.0, size=rows)
            predictions = labels + rng.normal(0.0, 3.0 * level + 0.01, rows)
        chunks.append((predictions, labels))
    return chunks


def make_detector(name, rng):
    """A detector sensitive enough to signal on a few dozen rows."""
    if name == "page_hinkley":
        return PageHinkley(
            delta=float(rng.choice([0.0, 0.005, 0.05])),
            threshold=float(rng.choice([0.5, 2.0, 10.0])),
            minimum_observations=int(rng.integers(5, 40)),
        )
    return WindowComparisonDetector(
        window_size=int(rng.integers(5, 40)),
        ratio=float(rng.choice([0.1, 0.3, 1.0])),
    )


def drift_points(telemetry):
    return [
        (event["name"], event["attrs"]["chunk"], event["attrs"]["state"])
        for event in telemetry.events
        if event["name"].startswith("drift.")
    ]


# ----------------------------------------------------------------------
# Decision identity
# ----------------------------------------------------------------------
KINDS = ("rate", "rmse")


def draw_degradation_case(kind, seed):
    rng = ensure_rng([seed, KINDS.index(kind)])
    config = dict(
        tolerance_ratio=float(rng.choice([0.01, 0.1, 0.5, 2.0])),
        window_chunks=int(rng.choice([1, 2, 4, 10])),
        cooldown_chunks=int(rng.choice([0, 1, 4, 10])),
        min_absolute_delta=float(rng.choice([0.0, 0.01, 0.2])),
    )
    return config, draw_chunks(rng, kind, 120)


@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
@pytest.mark.parametrize("kind", KINDS)
def test_degradation_trigger_fires_where_the_threshold_deployment_did(
    kind, seed
):
    config, chunks = draw_degradation_case(kind, seed)
    context = f"seed {seed}, {kind}, {config}"
    reference = ReferenceThreshold(kind, **config)
    trigger = DegradationTrigger(**config)
    fired = []
    for index, (predictions, labels) in enumerate(chunks):
        reference._predict(predictions, labels)
        reference._observe(index)
        trigger.record_errors(
            errors_from_predictions(kind, predictions, labels)
        )
        if trigger.should_train(index, now=float(index)):
            fired.append(index)
            trigger.record_training(float(index), 0.5)
        assert fired == reference.retrain_chunks, f"chunk {index}: {context}"
        assert trigger.state_dict() == {
            "retrain_chunks": reference.retrain_chunks,
            "window": list(reference._window),
            "baseline": reference._baseline,
            "chunks_since_training": reference._chunks_since_retrain,
        }, f"chunk {index}: {context}"
        assert trigger.windowed_error() == reference.windowed_error()


def test_degradation_cases_are_not_vacuous():
    """Over the generated cases the reference fires dozens of times,
    the edge configurations are drawn and every stream has an empty
    chunk."""
    fired, configs = 0, []
    for kind in KINDS:
        for seed in SEEDS:
            config, chunks = draw_degradation_case(kind, seed)
            configs.append(config)
            assert any(not len(labels) for __, labels in chunks)
            reference = ReferenceThreshold(kind, **config)
            for index, (predictions, labels) in enumerate(chunks):
                reference._predict(predictions, labels)
                reference._observe(index)
            fired += len(reference.retrain_chunks)
    assert fired >= 30, fired
    assert any(config["window_chunks"] == 1 for config in configs)
    assert any(config["cooldown_chunks"] == 0 for config in configs)


def draw_drift_case(detector, seed):
    """``(kind, delay, detector factory, chunks)``."""
    rng = ensure_rng([seed, DETECTORS.index(detector)])
    kind = "rate" if rng.random() < 0.5 else "rmse"
    delay = int(rng.choice([0, 1, 4, 10]))
    detector_seed = int(rng.integers(1 << 30))

    def build():
        return make_detector(detector, ensure_rng(detector_seed))

    return kind, delay, build, draw_chunks(rng, kind, 150)


@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
@pytest.mark.parametrize("detector", DETECTORS)
def test_drift_trigger_fires_where_the_drift_aware_deployment_did(
    detector, seed
):
    kind, delay, build, chunks = draw_drift_case(detector, seed)
    context = f"seed {seed}, {build()!r}, {kind}, delay {delay}"
    reference = ReferenceDriftAware(kind, build(), delay)
    telemetry = Telemetry()
    trigger = DriftTrigger(build(), delay_chunks=delay, telemetry=telemetry)
    fired = []
    for index, (predictions, labels) in enumerate(chunks):
        reference._predict(predictions, labels)
        reference._observe(index)
        trigger.record_errors(
            errors_from_predictions(kind, predictions, labels)
        )
        if trigger.should_train(index, now=float(index)):
            fired.append(index)
            for __ in range(2):  # a burst: it hears its own trainings
                trigger.record_training(float(index), 0.5)
        assert fired == reference.bursts, f"chunk {index}: {context}"
        assert trigger.state_dict() == {
            "detector": reference.detector.state_dict(),
            "drift_chunks": reference.drift_chunks,
            "countdown": reference._burst_countdown,
            "chunks_seen": reference._chunk_index + 1,
        }, f"chunk {index}: {context}"
    assert drift_points(telemetry) == reference.points, context
    counters = telemetry.metrics.snapshot()["counters"]
    signals = [p for p in reference.points if p[0] == names.DRIFT_SIGNAL]
    assert counters.get(names.DRIFT_SIGNALS, 0) == len(signals), context
    assert counters.get(names.DRIFT_WARNINGS, 0) == len(
        reference.points
    ) - len(signals), context
    assert trigger.drifts_detected == len(reference.drift_chunks)


def test_drift_cases_are_not_vacuous():
    """Every detector signals and bursts over its generated cases, and
    an immediate response (``delay=0``) is drawn."""
    delays = set()
    for detector in DETECTORS:
        bursts = 0
        for seed in SEEDS:
            kind, delay, build, chunks = draw_drift_case(detector, seed)
            delays.add(delay)
            reference = ReferenceDriftAware(kind, build(), delay)
            for index, (predictions, labels) in enumerate(chunks):
                reference._predict(predictions, labels)
                reference._observe(index)
            bursts += len(reference.bursts)
        assert bursts >= 5, (detector, bursts)
    assert 0 in delays


@pytest.mark.parametrize("detector", DETECTORS)
def test_a_drift_signalled_while_a_burst_is_pending_is_not_queued(detector):
    """The concept flips back and forth faster than the delay: the
    detector resets and signals again before the countdown ends.
    Reference and trigger agree that the second signal is reported and
    starts nothing."""
    rng = ensure_rng(DETECTORS.index(detector))
    sensitive = {
        "page_hinkley": lambda: PageHinkley(
            threshold=0.5, minimum_observations=5
        ),
        "window": lambda: WindowComparisonDetector(window_size=5, ratio=0.1),
    }[detector]
    reference = ReferenceDriftAware("rate", sensitive(), 10)
    telemetry = Telemetry()
    trigger = DriftTrigger(sensitive(), delay_chunks=10, telemetry=telemetry)
    fired = []
    for index in range(40):
        labels = rng.choice([-1.0, 1.0], size=20)
        # Eight chunks right, then wrong / right in blocks of four.
        wrong = index >= 8 and (index // 4) % 2 == 0
        predictions = -labels if wrong else labels
        reference._predict(predictions, labels)
        reference._observe(index)
        trigger.record_errors(
            errors_from_predictions("rate", predictions, labels)
        )
        if trigger.should_train(index, now=float(index)):
            fired.append(index)
    signals = [p for p in reference.points if p[0] == names.DRIFT_SIGNAL]
    assert len(signals) > len(reference.drift_chunks) >= 1
    assert fired == reference.bursts and fired
    assert drift_points(telemetry) == reference.points
    assert trigger.drift_chunks == reference.drift_chunks


# ----------------------------------------------------------------------
# Split invariance
# ----------------------------------------------------------------------
TRIGGERS = ("static", "dynamic", "degradation", "drift")


def make_trigger(name, seed):
    """A fresh trigger of the configuration ``seed`` draws."""
    rng = ensure_rng([seed, 99])
    if name == "static":
        return StaticScheduler(int(rng.integers(1, 6)))
    if name == "dynamic":
        return DynamicScheduler(
            slack=float(rng.choice([1.0, 1.5, 4.0])),
            initial_interval=float(rng.choice([0.01, 1.0, 5.0])),
        )
    if name == "degradation":
        return DegradationTrigger(
            tolerance_ratio=float(rng.choice([0.01, 0.5])),
            window_chunks=int(rng.choice([1, 3, 6])),
            cooldown_chunks=int(rng.choice([0, 2, 6])),
            min_absolute_delta=float(rng.choice([0.0, 0.05])),
        )
    return DriftTrigger(
        make_detector(DETECTORS[int(rng.integers(len(DETECTORS)))], rng),
        delay_chunks=int(rng.choice([0, 2, 5])),
    )


def draw_operations(rng, count):
    """An interleaving of the four protocol calls. Chunk indices and
    the clock only move forward; nothing else is assumed (a training
    need not follow a firing, errors need not precede a decision)."""
    operations, chunk, now = [], 0, 0.0
    level = float(rng.random())
    for __ in range(count):
        now += float(rng.random())
        choice = rng.random()
        if choice < 0.3:
            operations.append(
                ("record_predictions", int(rng.integers(0, 50)),
                 float(rng.random() * 0.1))
            )
        elif choice < 0.6:
            if rng.random() < 0.05:
                level = float(rng.random())
            rows = int(rng.integers(0, 30))
            operations.append(
                ("record_errors",
                 (rng.random(rows) < level).astype(np.float64))
            )
        elif choice < 0.85:
            operations.append(("should_train", chunk, now))
            chunk += 1
        else:
            operations.append(
                ("record_training", now, float(rng.random()))
            )
    return operations


def apply(trigger, operations):
    return [
        getattr(trigger, name)(*arguments)
        for name, *arguments in operations
    ]


@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
@pytest.mark.parametrize("name", TRIGGERS)
def test_state_dict_splits_a_run_anywhere(name, seed):
    rng = ensure_rng([seed, len(name)])
    operations = draw_operations(rng, 400)
    split = int(rng.integers(0, len(operations) + 1))
    live = make_trigger(name, seed)
    context = f"seed {seed}, {live!r}, split at {split}"

    apply(live, operations[:split])
    captured = live.state_dict()
    snapshot = copy.deepcopy(captured)
    tail = apply(live, operations[split:])
    assert captured == snapshot, f"captured state moved: {context}"

    resumed = make_trigger(name, seed)
    resumed.load_state_dict(pickle.loads(pickle.dumps(captured)))
    assert apply(resumed, operations[split:]) == tail, context
    assert resumed.state_dict() == live.state_dict(), context


@pytest.mark.parametrize("name", TRIGGERS)
def test_interleavings_exercise_the_trigger(name):
    """Over the seeds every trigger both fires and holds back, and
    (the static one has no state) ends somewhere it did not start."""
    decisions = set()
    for seed in SEEDS:
        trigger = make_trigger(name, seed)
        fresh = trigger.state_dict()
        operations = draw_operations(ensure_rng([seed, len(name)]), 400)
        decisions.update(
            fired
            for (op, *__), fired in zip(operations, apply(trigger, operations))
            if op == "should_train"
        )
        if name != "static":
            assert trigger.state_dict() != fresh
    assert decisions == {True, False}


# ----------------------------------------------------------------------
# The fleet's drift score
# ----------------------------------------------------------------------
def reference_drift_score(chunk_errors):
    """``TenantRuntime.drift_score`` over the tenant's whole list of
    measured chunk errors, before the grant trigger kept the window."""
    w = 3
    if len(chunk_errors) < 2 * w:
        return 0.0
    recent = sum(chunk_errors[-w:]) / w
    previous = sum(chunk_errors[-2 * w : -w]) / w
    if previous <= 1e-9:
        return 0.0
    return max(0.0, recent / previous - 1.0)


def drift_score_run(kind, seed):
    """Feed one generated stream to a grant trigger and, as the parent
    tenant did, to a tracker and a list; returns ``(reference, grant)``
    score pairs after every chunk and which branches the stream hit."""
    rng = ensure_rng([seed, 7, KINDS.index(kind)])
    chunks = draw_chunks(rng, kind, 90)
    # Residuals scaled down far enough that a window's mean squared
    # error is below 1e-9 without being zero.
    scale = float(rng.choice([1.0, 1e-3, 1e-6]))
    tracker = PrequentialTracker(kind=kind)
    chunk_errors = []
    grant = GrantTrigger()
    pairs, hit = [], set()
    for index, (predictions, labels) in enumerate(chunks):
        predictions = labels + (predictions - labels) * scale
        chunk_error = tracker.score(predictions, labels)
        if chunk_error is None:
            hit.add("empty")
        else:
            chunk_errors.append(chunk_error)
        errors = errors_from_predictions(kind, predictions, labels)
        grant.record_errors(errors)
        slots = int(rng.integers(0, 3)) if rng.random() < 0.3 else 0
        grant.arm(slots)
        assert grant.should_train(index, 0.0) == slots
        assert grant.should_train(index, 0.0) == 0
        if slots:
            grant.record_training(0.0, 1.0)
        if rng.random() < 0.2:
            state = pickle.loads(pickle.dumps(grant.state_dict()))
            grant = GrantTrigger()
            grant.load_state_dict(state)
        if chunk_errors:
            assert grant.window[-1] == chunk_errors[-1]
        reference = reference_drift_score(chunk_errors)
        pairs.append((reference, grant.drift_score()))
        if len(chunk_errors) >= 6:
            previous = sum(chunk_errors[-6:-3]) / 3
            if previous == 0.0:
                hit.add("all-zero")
            elif previous <= 1e-9:
                hit.add("tiny")
            elif reference > 0.0:
                hit.add("inflated")
    return pairs, hit


@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
@pytest.mark.parametrize("kind", KINDS)
def test_grant_drift_score_is_the_tenants_bit_for_bit(kind, seed):
    pairs, __ = drift_score_run(kind, seed)
    for index, (reference, score) in enumerate(pairs):
        assert score.hex() == reference.hex(), (
            f"{kind} seed {seed}: chunk {index}: {score} != {reference}"
        )


def test_drift_score_cases_are_not_vacuous():
    hit = set()
    for kind in KINDS:
        for seed in SEEDS:
            hit |= drift_score_run(kind, seed)[1]
    assert hit == {"empty", "all-zero", "tiny", "inflated"}

"""Generated properties of ``checkpoint.write`` faults under a retry
policy.

``repro run``'s continuous deployment (the URL scenario at test scale,
built by ``make_deployment``) checkpoints every ``cadence`` chunks and
keeps the newest ``keep``. A generated :class:`FaultPlan` of
``io_error`` bursts and ``corrupt`` writes at ``checkpoint.write``,
under a generated :class:`RetryPolicy`, ends every run one of two ways:

* **absorbed** — byte-identical to the fault-free run at the same
  cadence (error and cost histories, counters, parameters, served
  predictions), every ``io_error`` retried, and the backoff charged
  on the retrier's virtual clock (``total_delay``: never slept, never
  on the cost clock);
* **named** — :class:`RetryExhausted`, naming the site, once all
  ``max_attempts`` attempts at one write fail. A fresh incarnation then
  recovers from the newest retained checkpoint that verifies — a
  ``corrupt`` write is skipped as invalid, never restored — and ends
  on the uninterrupted run's bytes. When no retained checkpoint
  verifies, recovery refuses with the :class:`ReliabilityError` that
  says so.

A retry is the site's next occurrence, so the outcome of a plan —
retries, the cursor whose write is exhausted, the cursor recovery
resumes at — follows from the plan alone (:func:`expected`), before
anything runs.

Everything is drawn from a ``repro.utils.rng`` seed; a failure names
the seed, the plan and the policy, and ``pytest
tests/property/test_property_checkpoint_write_faults.py -k "seed<N>"``
replays it.
"""

import pytest

from repro.exceptions import ReliabilityError
from repro.experiments.common import make_deployment, url_scenario
from repro.reliability import (
    CheckpointConfig,
    FaultPlan,
    FaultSpec,
    RetryExhausted,
    RetryPolicy,
)
from repro.reliability.sites import CHECKPOINT_WRITE
from repro.utils.rng import ensure_rng

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.exceptions.ConvergenceWarning"
)

SEEDS = range(24)
SCENARIO = url_scenario("test")
_CLEAN = {}


def draw_case(seed):
    """Cadence, retention, policy and plan of one generated case."""
    rng = ensure_rng([seed, 24])
    cadence = int(rng.integers(2, 8))
    writes = SCENARIO.num_chunks // cadence
    kinds = {}
    for _ in range(int(rng.integers(1, 4))):  # bursts of 1-3 failures
        start = int(rng.integers(1, writes + 3))
        if rng.random() < 0.5:  # the write before the burst, corrupted
            kinds.setdefault(start - 1, "corrupt")
        for occurrence in range(start, start + int(rng.integers(1, 4))):
            kinds[occurrence] = "io_error"
    kinds.pop(0, None)
    return {
        "seed": seed,
        "cadence": cadence,
        "keep": int(rng.integers(1, 4)),
        "policy": RetryPolicy(
            max_attempts=int(rng.integers(1, 5)),
            jitter=float(rng.choice([0.0, 0.3, 1.0])),
            seed=seed,
        ),
        "plan": FaultPlan.of(
            *(
                FaultSpec(CHECKPOINT_WRITE, occurrence, kind)
                for occurrence, kind in sorted(kinds.items())
            )
        ),
    }


def expected(case):
    """``(retries, exhausted cursor, resume cursor)`` the plan implies;
    the last two are ``None`` for an absorbed run, and the resume cursor
    also when no retained checkpoint verifies."""
    kinds = {spec.occurrence: spec.kind for spec in case["plan"].specs}
    attempts = case["policy"].max_attempts
    occurrence, retries, retained = 0, 0, []
    cadence = case["cadence"]
    for cursor in range(cadence, SCENARIO.num_chunks + 1, cadence):
        for attempt in range(attempts):
            occurrence += 1
            kind = kinds.get(occurrence)
            if kind != "io_error":
                retained = (retained + [(cursor, kind == "corrupt")])[
                    -case["keep"]:
                ]
                break
            retries += attempt < attempts - 1
        else:
            valid = [kept for kept, corrupt in retained if not corrupt]
            return retries, cursor, (valid[-1] if valid else None)
    return retries, None, None


def build(case, directory, **reliability):
    """The case's deployment, unfitted, checkpointing into
    ``directory``."""
    return make_deployment(
        SCENARIO,
        "continuous",
        checkpoint=CheckpointConfig(
            directory=directory,
            cadence_chunks=case["cadence"],
            keep=case["keep"],
        ),
        **reliability,
    )


def outcome(result, deployment):
    """What a finished run leaves, as comparable values and bytes."""
    predictions, __ = deployment._predict(SCENARIO.make_initial_data()[0])
    return {
        "error_history": result.error_history,
        "cost_history": result.cost_history,
        "counters": result.counters,
        "params": deployment.model.params_vector().tobytes(),
        "predictions": predictions.tobytes(),
    }


def clean(case, tmp_path):
    """The fault-free run at the case's cadence (cached per cadence)."""
    cadence = case["cadence"]
    if cadence not in _CLEAN:
        deployment = build(case, tmp_path / "clean")
        SCENARIO.fit(deployment)
        result = deployment.run(SCENARIO.make_stream())
        _CLEAN[cadence] = outcome(result, deployment)
    return _CLEAN[cadence]


@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
def test_checkpoint_write_faults_are_absorbed_or_named(tmp_path, seed):
    case = draw_case(seed)
    retries, exhausted, resume = expected(case)
    context = (
        f"seed={seed} cadence={case['cadence']} keep={case['keep']} "
        f"{case['policy']} {case['plan']}; replay: pytest "
        f"tests/property/test_property_checkpoint_write_faults.py "
        f'-k "seed{seed}]"'
    )
    reference = clean(case, tmp_path)
    directory = tmp_path / "faulty"
    deployment = build(
        case, directory, fault_plan=case["plan"], retry=case["policy"]
    )
    SCENARIO.fit(deployment)
    retrier = deployment.reliability.retrier
    if exhausted is None:
        result = deployment.run(SCENARIO.make_stream())
        assert outcome(result, deployment) == reference, context
    else:
        with pytest.raises(RetryExhausted, match=CHECKPOINT_WRITE):
            deployment.run(SCENARIO.make_stream())
        assert deployment.reliability.last_checkpoint_cursor == (
            exhausted - case["cadence"] if exhausted > case["cadence"]
            else None
        ), context
    assert retrier.retries == retries, context
    assert (retrier.total_delay > 0.0) == (retries > 0), context
    if exhausted is None:
        return

    # A fresh incarnation: no faults, the same directory.
    recovering = build(case, directory)
    if resume is None:
        with pytest.raises(ReliabilityError, match="no valid checkpoint"):
            recovering.recover(SCENARIO.make_stream())
        return
    result = recovering.recover(SCENARIO.make_stream())
    assert result.recovery.cursor == resume, context
    assert outcome(result, recovering) == reference, context


def test_the_property_above_is_not_vacuous():
    """The seeds reach every ending: absorbed with retries, a corrupt
    write absorbed, exhausted and recovered past a corrupt newest
    checkpoint, and exhausted with nothing valid left."""
    endings = set()
    for seed in SEEDS:
        case = draw_case(seed)
        retries, exhausted, resume = expected(case)
        kinds = {spec.kind for spec in case["plan"].specs}
        if exhausted is None:
            endings.add("absorbed-retried" if retries else "absorbed")
            if "corrupt" in kinds:
                endings.add("absorbed-corrupt")
        elif resume is None:
            endings.add("exhausted-unrecoverable")
        else:
            endings.add("exhausted-recovered")
            if resume < exhausted - case["cadence"]:
                endings.add("recovered-past-corrupt")
    assert endings >= {
        "absorbed-retried",
        "absorbed-corrupt",
        "exhausted-recovered",
        "recovered-past-corrupt",
        "exhausted-unrecoverable",
    }, endings

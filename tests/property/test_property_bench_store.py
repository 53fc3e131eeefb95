"""Generated properties of the baseline store and its gate.

The benchmark suite's ``bench_record`` fixture (``benchmarks/
conftest.py``) is the one writer of ``BENCH_*.json``: it appends a
record through :meth:`BaselineStore.append`, or, under
``REPRO_BENCH_CHECK``, gates it against the stored trajectory through
:func:`check_record`. Over generated records — 0–40 metrics of the
three kinds, values finite, ``nan``, ``±inf``, ``-0.0`` and subnormal,
with and without a profile digest:

* **Round trip.** ``append`` then ``load`` gives every value back bit
  for bit (``float.hex``), with its kind, seed, params and digest; k
  appends load back as k records, in order.
* **Self-check.** A record checked against itself — in memory, or
  appended and loaded back as the fixture does — gives only ``ok``.
* **One perturbed metric** gets DESIGN.md §10's verdict: a ``count``
  that moved at all, a value that is not finite, or a higher value is
  a ``regression``; a lower finite value is an ``improvement``. Every
  other metric stays ``ok``.
* **Dropped and added metrics.** A metric the fresh run lacks is
  ``missing`` and fails the gate; one the baseline lacks is ``new``
  and passes.
* **Only the latest record counts.** Older records, however far off,
  leave the report as it is against the latest alone.

Everything is drawn from ``repro.utils.rng`` seeds; a failure names
the seed, and ``pytest tests/property/test_property_bench_store.py -k
"seed<N>"`` replays it.
"""

import math

import pytest

from repro.obs.baseline import BaselineStore, BenchRecord, MetricValue
from repro.obs.perf import check_record
from repro.utils.rng import ensure_rng

SEEDS = range(25)
KINDS = ("cost", "quality", "count")
NAME = "bench_property"

#: Values that break naive comparison or naive serialisation.
SPECIAL = (
    float("nan"),
    float("inf"),
    float("-inf"),
    -0.0,
    0.0,
    5e-324,
    -5e-324,
    2.2250738585072009e-308,
)


def draw_value(rng) -> float:
    pick = int(rng.integers(0, 4))
    if pick == 0:
        return SPECIAL[int(rng.integers(len(SPECIAL)))]
    if pick == 1:
        # k * 2**-1074 with k < 2**52 is an exact subnormal.
        sign = -1.0 if rng.integers(2) else 1.0
        return sign * float(rng.integers(1, 2**52)) * 5e-324
    if pick == 2:
        return float(rng.integers(0, 10**6))
    return float(rng.uniform(-1.0, 1.0)) * 10.0 ** int(
        rng.integers(-300, 300)
    )


def draw_record(rng, metrics=None) -> BenchRecord:
    if metrics is None:
        metrics = {
            f"m{index:02d}": MetricValue(
                draw_value(rng), KINDS[int(rng.integers(len(KINDS)))]
            )
            for index in range(int(rng.integers(0, 41)))
        }
    digest = (
        None if rng.integers(2) else f"{int(rng.integers(2**62)):064x}"
    )
    return BenchRecord(
        name=NAME,
        metrics=metrics,
        seed=int(rng.integers(0, 1000)),
        params={"chunks": int(rng.integers(1, 50))},
        profile_digest=digest,
    )


def same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def bits(record: BenchRecord):
    return {
        key: (float.hex(value.value), value.kind)
        for key, value in record.metrics.items()
    }


def verdicts(report):
    return {check.metric: check.verdict for check in report.checks}


def expected_verdict(kind: str, old: float, new: float) -> str:
    """DESIGN.md §10, written out case by case."""
    if kind == "count" or not math.isfinite(new):
        return "regression"
    if math.isnan(old):
        return "improvement"  # a finite value where nan stood
    return "regression" if new > old else "improvement"


@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
def test_append_then_load_round_trips_bit_for_bit(seed, tmp_path):
    rng = ensure_rng(seed)
    store = BaselineStore(tmp_path)
    written = [draw_record(rng) for _ in range(int(rng.integers(1, 5)))]
    for record in written:
        assert store.append(record) == store.path_for(NAME)
    loaded = store.load(NAME)
    assert len(loaded) == len(written), f"seed={seed}"
    for before, after in zip(written, loaded):
        assert bits(after) == bits(before), f"seed={seed}"
        assert (after.seed, after.params, after.profile_digest) == (
            before.seed,
            before.params,
            before.profile_digest,
        ), f"seed={seed}"


@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
def test_a_record_checked_against_itself_is_all_ok(seed, tmp_path):
    rng = ensure_rng(seed)
    record = draw_record(rng)
    store = BaselineStore(tmp_path)
    store.append(record)
    for history in ([record], store.load(NAME)):
        report = check_record(record, history)
        assert set(verdicts(report).values()) == {"ok"}, (
            f"seed={seed}: {verdicts(report)}"
        )
        assert report.ok


@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
def test_one_perturbed_metric_gets_the_documented_verdict(seed):
    rng = ensure_rng(seed)
    for _ in range(20):
        baseline = draw_record(rng)
        if not baseline.metrics:
            continue
        keys = sorted(baseline.metrics)
        key = keys[int(rng.integers(len(keys)))]
        old = baseline.metrics[key]
        new = draw_value(rng)
        while same(new, old.value):
            new = draw_value(rng)
        fresh = draw_record(
            rng, metrics={**baseline.metrics, key: MetricValue(new, old.kind)}
        )
        report = check_record(fresh, [baseline])
        want = expected_verdict(old.kind, old.value, new)
        got = verdicts(report)
        context = f"seed={seed} {key} {old.kind}: {old.value!r} -> {new!r}"
        assert got.pop(key) == want, context
        assert set(got.values()) <= {"ok", "changed"}, context
        assert report.ok == (want != "regression"), context


@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
def test_dropped_metric_is_missing_and_added_metric_is_new(seed):
    rng = ensure_rng(seed)
    baseline = draw_record(rng)
    while not baseline.metrics:
        baseline = draw_record(rng)
    keys = sorted(baseline.metrics)
    dropped = keys[int(rng.integers(len(keys)))]
    fewer = dict(baseline.metrics)
    del fewer[dropped]
    report = check_record(
        BenchRecord(NAME, fewer, profile_digest=baseline.profile_digest),
        [baseline],
    )
    assert verdicts(report)[dropped] == "missing", f"seed={seed}"
    assert [c.metric for c in report.regressions] == [dropped]

    added = {**baseline.metrics, "extra": MetricValue(draw_value(rng))}
    report = check_record(
        BenchRecord(NAME, added, profile_digest=baseline.profile_digest),
        [baseline],
    )
    assert verdicts(report)["extra"] == "new", f"seed={seed}"
    assert report.ok, f"seed={seed}"


@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
def test_only_the_latest_record_is_compared(seed, tmp_path):
    rng = ensure_rng(seed)
    store = BaselineStore(tmp_path)
    for _ in range(int(rng.integers(1, 5))):
        store.append(draw_record(rng))
    latest = draw_record(rng)
    store.append(latest)
    fresh = draw_record(rng, metrics=dict(latest.metrics))
    if rng.integers(2) and latest.metrics:
        key = sorted(latest.metrics)[0]
        fresh.metrics[key] = MetricValue(
            draw_value(rng), latest.metrics[key].kind
        )

    def summary(report):
        return [
            (
                check.metric,
                check.kind,
                check.verdict,
                None if check.fresh is None else float.hex(check.fresh),
                None if check.baseline is None else float.hex(check.baseline),
                check.detail,
            )
            for check in report.checks
        ]

    history = store.load(NAME)
    whole = check_record(fresh, history)
    alone = check_record(fresh, history[-1:])
    assert whole.baseline_records == len(history)
    assert summary(whole) == summary(alone), f"seed={seed}"

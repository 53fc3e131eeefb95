"""Generated properties of the materialization utilisation rate μ.

Three things claim to know μ (§3.2.2): the closed forms
``utilization_random`` / ``utilization_window`` (equations (4)/(5)),
the bookkeeping simulator ``empirical_utilization``, and a real
:class:`DataManager` over a bounded :class:`ChunkStorage`, which counts
hits as it samples (``stats.utilization()``). Over generated
``(N, m, w, s, half-life)``:

* **simulator ≡ manager.** Driven from the same seed the two make the
  same draws, so their μ is the same number (to summation order) — for
  every sampler, including the time-based one that has no closed form.
  The manager also rebuilds exactly the chunks it reports as misses
  and, re-materialized chunks being transient, ends with the newest
  ``m`` chunks materialized.
* **empirical ≈ closed form.** One sampling operation over ``n``
  eligible chunks of which ``m`` are materialized is hypergeometric;
  with exact harmonic numbers (4) and (5) *are* the mean of the
  per-operation expectations, so the empirical μ lies within three
  standard errors of them (operations are independent; the variance is
  the sum of the hypergeometric ones).
* ``m ≥ w`` ⇒ μ = 1 exactly, for all three.
* For the time-based sampler at ``s = 1`` the expectation is the
  weight share of the newest ``m`` chunks; the empirical μ is held to
  that.

Everything is drawn from ``repro.utils.rng`` seeds; a failure names the
seed and the configuration, and ``pytest
tests/property/test_property_materialization.py -k "seed<N>"`` replays
it.
"""

import math

import numpy as np
import pytest

from repro.data.manager import DataManager, SampleRequest
from repro.data.materialization import (
    empirical_utilization,
    utilization_random,
    utilization_window,
)
from repro.data.sampling import (
    TimeBasedSampler,
    UniformSampler,
    WindowBasedSampler,
)
from repro.data.storage import ChunkStorage
from repro.data.table import Table
from repro.utils.rng import ensure_rng

from tests.data.test_manager import simple_materializer

SEEDS = range(30)
SAMPLERS = ("uniform", "window", "time")


def configuration(seed):
    rng = ensure_rng(seed)
    big_n = int(rng.integers(20, 160))
    return {
        "N": big_n,
        # Past N on purpose: a budget or window the stream never fills.
        "m": int(rng.integers(0, big_n + 10)),
        "w": int(rng.integers(1, big_n + 10)),
        "s": int(rng.integers(1, 25)),
        "half_life": float(rng.choice([0.5, 3.0, 20.0, 1000.0])),
        "draw_seed": int(rng.integers(0, 2**31)),
    }


def build_sampler(name, config):
    if name == "uniform":
        return UniformSampler()
    if name == "window":
        return WindowBasedSampler(config["w"])
    return TimeBasedSampler(config["half_life"])


def deploy(sampler, config, sample_every=1):
    """A real manager over a bounded store: every chunk is ingested and
    materialized, every ``sample_every``-th arrival draws a sample.
    Returns the manager and the timestamps it had rebuilt."""
    manager = DataManager(
        storage=ChunkStorage(max_materialized=config["m"]),
        sampler=sampler,
        seed=config["draw_seed"],
    )
    rebuilt = []

    def materializer(raw):
        rebuilt.append(raw.timestamp)
        return simple_materializer(raw)

    for arrival in range(1, config["N"] + 1):
        row = [float(arrival)] * 2
        raw = manager.ingest(Table({"x": row, "label": row}))
        manager.store_features(simple_materializer(raw))
        if arrival % sample_every == 0:
            manager.sample(SampleRequest(config["s"]), materializer)
    return manager, rebuilt


def eligible_counts(name, config):
    """Chunks a sampling operation can draw from, per arrival."""
    arrivals = np.arange(1, config["N"] + 1)
    if name == "window":
        return np.minimum(arrivals, config["w"])
    return arrivals


def standard_error(name, config):
    """Of the mean over arrivals of hits / draws: independent
    hypergeometric operations (population ``n``, ``min(m, n)``
    materialized, ``min(s, n)`` drawn)."""
    total = 0.0
    for n in eligible_counts(name, config).tolist():
        draws = min(config["s"], n)
        p = min(config["m"], n) / n
        if n > 1:
            total += p * (1 - p) * (n - draws) / (draws * (n - 1))
    return math.sqrt(total) / config["N"]


@pytest.mark.parametrize("name", SAMPLERS)
@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
def test_manager_reports_the_simulators_utilization(seed, name):
    config = configuration(seed)
    context = f"seed {seed}, sampler {name}, configuration {config}"
    sample_every = 1 + seed % 3
    simulated = empirical_utilization(
        build_sampler(name, config),
        config["N"],
        config["m"],
        config["s"],
        rng=config["draw_seed"],
        sample_every=sample_every,
    )
    manager, rebuilt = deploy(
        build_sampler(name, config), config, sample_every
    )
    stats = manager.stats
    assert stats.utilization() == pytest.approx(
        simulated, abs=1e-12
    ), context
    assert stats.operations == config["N"] // sample_every, context
    assert len(rebuilt) == stats.rematerializations, context
    assert (
        stats.chunks_materialized + stats.rematerializations
        == stats.chunks_sampled
    ), context
    newest = list(range(config["N"]))[-config["m"]:] if config["m"] else []
    assert manager.storage.materialized_timestamps == newest, context


@pytest.mark.parametrize("name", ["uniform", "window"])
@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
def test_empirical_utilization_is_the_closed_form(seed, name):
    config = configuration(seed)
    context = f"seed {seed}, sampler {name}, configuration {config}"
    if name == "uniform":
        closed = utilization_random(config["N"], config["m"])
    else:
        closed = utilization_window(config["N"], config["m"], config["w"])
    # The closed form is the mean of the per-operation expectations.
    eligible = eligible_counts(name, config)
    expected = float(np.mean(np.minimum(config["m"], eligible) / eligible))
    assert closed == pytest.approx(expected, abs=1e-12), context

    manager, _ = deploy(build_sampler(name, config), config)
    bound = 3 * standard_error(name, config) + 1e-12
    assert abs(manager.stats.utilization() - closed) <= bound, context


@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
def test_budget_covering_the_window_is_full_utilization(seed):
    config = configuration(seed)
    config["m"] = config["w"] + seed % 3
    context = f"seed {seed}, configuration {config}"
    sampler = WindowBasedSampler(config["w"])
    assert utilization_window(config["N"], config["m"], config["w"]) == 1.0
    assert (
        empirical_utilization(
            sampler, config["N"], config["m"], config["s"], rng=seed
        )
        == 1.0
    ), context
    manager, rebuilt = deploy(sampler, config)
    assert manager.stats.utilization() == 1.0, context
    assert rebuilt == [], context


@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
def test_time_based_single_draw_is_the_newest_weight_share(seed):
    config = dict(configuration(seed), s=1)
    context = f"seed {seed}, configuration {config}"
    sampler = TimeBasedSampler(config["half_life"])
    shares = []
    for n in range(1, config["N"] + 1):
        weights = sampler.weights(range(n))
        kept = min(config["m"], n)
        shares.append(weights[n - kept:].sum() / weights.sum())
    shares = np.asarray(shares)
    error = math.sqrt(float(np.sum(shares * (1 - shares)))) / config["N"]
    manager, _ = deploy(sampler, config)
    assert abs(manager.stats.utilization() - shares.mean()) <= (
        3 * error + 1e-12
    ), context

"""Generated properties of the plans a ``FeatureHasher`` keeps.

Everything hashing a batch computes from its ``indptr`` and ``indices``
alone is a *plan*; the hasher keeps one per frozen pair of index arrays
it has met, keyed by their identity and holding them only weakly, so a
plan lives exactly as long as the arrays that key it — one prequential
step for the step's parsed rows, the raw chunk's stay in storage for a
re-read chunk's.

**Kept ≡ fresh.** The reference is a fresh ``FeatureHasher`` per call,
which has nothing to reuse. Over generated batches (0–60 rows, a width
small enough to force collisions, signed and unsigned) of three kinds —
frozen arrays that own their data, writable arrays, and read-only views
of writable arrays, the last two written in place between calls — each
hashed several times with new values, every output has the reference's
bytes and CSR dtypes. Each output is also the constructor's own:
``sp.csr_matrix`` built from its arrays pickles to the same bytes with
the same ``vars()`` keys in the same order, and a full
``check_format`` passes — scipy checks a plan's structure on its first
apply only, and every later apply copies a checked shell. Outputs
pickled together (as a checkpoint's pack pickles them) are the
constructor's outputs pickled together. No output shares memory with a
kept plan or an earlier output, and writing into one changes no later
apply.

**Once.** A kept plan's first apply calls ``sp.csr_matrix`` once and
its later applies not at all; a batch whose arrays are not frozen is
planned, and checked, on every apply.

**Lifetime.** The table holds exactly the live frozen key arrays (none
after the last batch is dropped and ``gc.collect()``); no output matrix
shares memory with a kept plan; the pickle and ``component_fingerprint``
are a fresh hasher's; a deep copy starts with no plan and no shell.
Through a ``PipelineManager`` a plan lives as long as the prefix memo
holding the parsed rows, and a hasher plans once per parse.

Everything is drawn from a ``repro.utils.rng`` seed; ``pytest
tests/property/test_property_hasher_plans.py -k "seed<N>"`` replays a
failure.
"""

import copy
import gc
import pickle
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp

from repro.datasets.url import URLStreamGenerator, make_url_pipeline
from repro.experiments.common import make_deployment, url_scenario
from repro.pipeline.component import SparseRows
from repro.pipeline.components import FeatureHasher, SvmLightParser
from repro.pipeline.fingerprint import component_fingerprint
from repro.utils.rng import ensure_rng

from tests.property.test_property_prefix_retention import url_manager
from tests.property.test_property_sparse_pipeline import features_bytes

SEEDS = range(12)
KINDS = ("frozen", "writable", "view")


def draw_rows(rng, kind, universe):
    """A batch of ``kind`` (see the module docstring); a ``view``
    batch's writable bases ride along as its third element."""
    num_rows = int(rng.integers(0, 61))
    sizes = rng.integers(0, 9, size=num_rows)
    indptr = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    indices = np.concatenate(
        [np.zeros(0, dtype=np.int64)]
        + [rng.choice(universe, size=size, replace=False) for size in sizes]
    ).astype(np.int64)
    bases = None
    if kind == "view":
        bases = indptr, indices
        indptr, indices = indptr[:], indices[:]
    if kind != "writable":
        indptr.flags.writeable = indices.flags.writeable = False
    labels = rng.choice([-1.0, 1.0], size=num_rows)
    rows = SparseRows(labels, indptr, indices, np.zeros(len(indices)))
    return rows, kind, bases


def rewrite(rng, rows, bases):
    """Write a non-frozen batch's index arrays in place."""
    indptr, indices = bases or (rows.indptr, rows.indices)
    indices[:] = rng.permutation(indices)
    share = np.full(max(rows.num_rows, 1), 1.0 / max(rows.num_rows, 1))
    indptr[1:] = np.cumsum(rng.multinomial(len(indices), share))[
        : rows.num_rows
    ]


def new_values(rng, rows):
    values = rng.standard_normal(len(rows.indices))
    values[rng.random(len(values)) < 0.05] = np.nan
    return rows._replace(data=values)


def kept_arrays(hasher):
    return [array for __, plan in hasher._plans.values() for array in plan]


def replay(test, seed):
    return (
        f"seed {seed}; replay: pytest "
        f"tests/property/test_property_hasher_plans.py -k "
        f'"{test} and seed{seed}"'
    )


def check_is_constructed(matrix, context):
    """``matrix`` is what ``sp.csr_matrix`` makes of its arrays."""
    built = sp.csr_matrix(
        (matrix.data, matrix.indices, matrix.indptr), shape=matrix.shape
    )
    assert list(vars(matrix)) == list(vars(built)), context
    assert pickle.dumps(matrix) == pickle.dumps(built), context
    copy.copy(matrix).check_format(full_check=True)


@pytest.mark.parametrize("signed", [True, False], ids=["signed", "unsigned"])
@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
def test_kept_plans_are_fresh_plans(seed, signed):
    rng = ensure_rng([seed, signed])
    width = int(rng.integers(1, 9))
    universe = int(rng.integers(8, 40))

    def make():
        return FeatureHasher(width, signed=signed, name="hasher")

    hasher, fresh = make(), make()
    blank, identity = pickle.dumps(fresh), component_fingerprint(fresh)
    live, earlier = [], []
    for step in range(30):
        # Drop a batch and hash one still held, or hash a new one.
        if len(live) > 1 and rng.random() < 0.4:
            live.pop(int(rng.integers(len(live))))
            rows, kind, bases = live[int(rng.integers(len(live)))]
        else:
            live.append(draw_rows(rng, str(rng.choice(KINDS)), universe))
            rows, kind, bases = live[-1]
        context = (
            f"step {step}, {kind}, width {width}, "
            + replay("test_kept_plans_are_fresh_plans", seed)
        )
        gots, wants = [], []
        for _ in range(int(rng.integers(1, 4))):
            if kind != "frozen":
                rewrite(rng, rows, bases)
            batch = new_values(rng, rows)
            got, want = hasher.transform(batch), make().transform(batch)
            # Bytes and dtype of every CSR array and the labels.
            assert features_bytes(*got) == features_bytes(*want), context
            matrix = got.matrix
            assert pickle.dumps(matrix) == pickle.dumps(want.matrix), context
            check_is_constructed(matrix, context)
            parts = matrix.data, matrix.indices, matrix.indptr
            assert not any(
                np.shares_memory(part, array)
                for part in parts
                for array in kept_arrays(hasher) + earlier
            ), context
            earlier.extend(parts)
            gots.append(matrix)
            wants.append(want.matrix)
        # Pickled together, as a checkpoint's pack pickles them: no
        # object shared between outputs turns into a memo reference.
        assert pickle.dumps(gots) == pickle.dumps(wants), context
        # Scribble over these outputs: no later apply may see it.
        for part in earlier[-3 * len(gots):]:
            part[:] = rng.integers(0, 2**30, size=len(part))
        assert set(hasher._plans) == {
            (id(rows.indptr), id(rows.indices))
            for rows, kind, _ in live
            if kind == "frozen"
        }, context
        assert pickle.dumps(hasher) == blank
        assert component_fingerprint(hasher) == identity
        twin = copy.deepcopy(hasher)
        assert twin._plans == {} and twin._shells == {}
        assert pickle.dumps(twin) == blank
    del live, rows, bases, batch
    gc.collect()
    assert hasher._plans == {}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
def test_scipy_checks_a_kept_plan_once(seed, kind, monkeypatch):
    rng = ensure_rng([seed, 4])
    rows, _, bases = draw_rows(rng, kind, 40)
    hasher, calls = FeatureHasher(8), []

    def counted(*args, inner=sp.csr_matrix, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(sp, "csr_matrix", counted)
    for apply in range(4):
        if kind != "frozen" and apply:
            rewrite(rng, rows, bases)
        del calls[:]
        hasher.transform(new_values(rng, rows))
        want = 1 if kind != "frozen" or apply == 0 else 0
        assert len(calls) == want, (
            f"apply {apply} of a {kind} batch called sp.csr_matrix "
            f"{len(calls)} times, not {want}; "
            + replay("test_scipy_checks_a_kept_plan_once", seed)
        )


@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
def test_a_read_only_view_of_writable_rows_is_hashed_as_it_is(seed):
    """A view marked read-only still changes when its base is written:
    it is not frozen, and nothing planned for it may be reused."""
    rng = ensure_rng([seed, 3])
    rows, _, bases = draw_rows(rng, "view", 40)
    rows = new_values(rng, rows)
    hasher = FeatureHasher(8)
    hasher.transform(rows)
    rewrite(rng, rows, bases)
    assert features_bytes(*hasher.transform(rows)) == features_bytes(
        *FeatureHasher(8).transform(rows)
    ), f"seed {seed}"


@pytest.mark.parametrize("capacity", [1, 3, 7])
def test_a_plan_lives_as_long_as_the_parsed_rows_keying_it(capacity):
    generator = URLStreamGenerator(num_chunks=20, rows_per_chunk=6, seed=1)
    manager = url_manager(
        make_url_pipeline(32), 32, max_materialized=0, raw_capacity=capacity
    )
    plans = manager.pipeline.component("hasher")._plans
    storage = manager.data_manager.storage

    def kept_prefixes():
        return {
            (id(memo.output.indptr), id(memo.output.indices))
            for memo in storage._derived.values()
        }

    for index in range(20):
        chunk = generator.chunk(index)
        manager.answer_queries(chunk)
        # The step's memo holds this chunk's parsed rows until the
        # training pass takes it.
        assert len(plans) == len(kept_prefixes()) + 1
        manager.process_training_chunk(chunk)
        assert set(plans) == kept_prefixes()
        manager.sample_for_training(capacity)
        assert set(plans) == kept_prefixes()
        assert 0 < len(plans) <= capacity
    manager.full_retrain(max_iterations=2)
    assert len(plans) == len(storage.raw_timestamps)
    storage.forget_derived()
    gc.collect()
    assert plans == {}


def test_a_bounded_store_plans_once_per_parse(monkeypatch):
    """How ``url_remat``'s plan count is taken: every plan computed is
    one parse's, and a store that can evict keeps the parse of every
    chunk a step stores, so a run parses and plans once per stored
    chunk, however often it is re-read."""
    calls = Counter()
    for kind, method in (
        (SvmLightParser, "transform"),
        (FeatureHasher, "transform"),
        (FeatureHasher, "_planned"),
    ):

        def counted(self, *args, inner=getattr(kind, method),
                    key=(kind.__name__, method)):
            calls[key] += 1
            return inner(self, *args)

        monkeypatch.setattr(kind, method, counted)
    scenario = url_scenario("test").with_continuous(
        max_materialized_chunks=2, sampler="uniform"
    )
    deployment = make_deployment(scenario, "continuous")
    initial = scenario.make_initial_data()
    deployment.initial_fit(
        initial, seed=scenario.seed, **scenario.initial_fit_kwargs
    )
    result = deployment.run(scenario.make_stream())
    # Nothing drops a raw chunk here: every stored chunk is kept.
    storage = deployment.data_manager.storage
    stored = len(initial) + scenario.num_chunks
    assert set(storage._derived) == set(storage.raw_timestamps)
    assert len(storage._derived) == stored
    rereads = result.counters["chunks_rematerialized"]
    assert rereads > stored
    # A stream chunk is hashed to answer it, to train on it, and on
    # every re-read; the online pass reuses the answer's parse.
    assert calls["FeatureHasher", "transform"] == stored + (
        scenario.num_chunks + rereads
    )
    assert calls["SvmLightParser", "transform"] == stored
    assert calls["FeatureHasher", "_planned"] == stored

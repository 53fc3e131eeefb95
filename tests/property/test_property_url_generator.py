"""Generated properties of the URL generator's draw sequence.

**Bulk draws ≡ scalar draws.** ``URLStreamGenerator._make_rows`` makes
a row's uniform draws as one array and fills a row's index set with
bulk ``rng.integers`` calls sized to the shortfall. The reference is
the row-at-a-time code it replaced, kept verbatim below: for generated
configurations — ``base_features`` below and above ``active_per_row``,
a ``recent_pool`` larger than what is available, a static and a growing
feature space, rates at 0 / 0.05 / 1 — every line of ``initial_data()``
and of every chunk is equal as a string **and** the generator's
``bit_generator.state`` is equal after each table (equal lines alone
could hide a draw consumed early, which the next table would pay for).

**Random access ≡ the stream.** ``chunk(i)`` asked in a random order
gives the tables ``stream()`` gives in order.

Everything is drawn from ``repro.utils.rng`` seeds; a failure names the
seed and the configuration, and ``pytest
tests/property/test_property_url_generator.py -k "seed<N>"`` replays it.
"""

import numpy as np
import pytest

from repro.data.table import Table
from repro.datasets.url import URLStreamGenerator
from repro.utils.rng import ensure_rng

SEEDS = range(40)
INITIAL_ROWS = 30

#: The axes a configuration is drawn over.
AXES = {
    "base_features": (3, 9, 40, 400),
    "active_per_row": (5, 15),
    "recent_pool": (2, 100, 1000),
    "new_features_per_chunk": (0, 2),
    "missing_rate": (0.0, 0.05, 1.0),
    "label_noise": (0.0, 0.05, 1.0),
    "recent_feature_bias": (0.0, 0.3, 1.0),
}


def configuration(seed):
    rng = ensure_rng(seed)
    drawn = {
        name: values[int(rng.integers(0, len(values)))]
        for name, values in AXES.items()
    }
    drawn["num_chunks"] = int(rng.integers(3, 8))
    drawn["rows_per_chunk"] = int(rng.integers(1, 20))
    drawn["seed"] = int(rng.integers(0, 2**31))
    return drawn


# ----------------------------------------------------------------------
# The replaced code, verbatim: one scalar draw at a time.
# ----------------------------------------------------------------------
class ScalarDrawGenerator(URLStreamGenerator):
    def _make_rows(self, rng, num_rows, available, weights):
        active = min(self.active_per_row, available)
        pool_start = max(0, available - self.recent_pool)
        lines = np.empty(num_rows, dtype=object)
        for row in range(num_rows):
            indices = self._draw_indices(
                rng, available, active, pool_start
            )
            values = np.abs(rng.standard_normal(active)) + 0.1
            score = float(values @ weights[indices]) + self._bias
            label = 1.0 if score >= 0 else -1.0
            if rng.random() < self.label_noise:
                label = -label
            tokens = [f"{int(label)}"]
            for index, value in zip(indices, values):
                if rng.random() < self.missing_rate:
                    tokens.append(f"{index}:nan")
                else:
                    tokens.append(f"{index}:{value:.6f}")
            lines[row] = " ".join(tokens)
        return Table({"line": lines})

    def _draw_indices(self, rng, available, active, pool_start):
        recent_count = int(
            rng.binomial(active, self.recent_feature_bias)
        )
        recent_count = min(recent_count, available - pool_start)
        chosen = set()
        if recent_count:
            chosen.update(
                int(i)
                for i in rng.choice(
                    np.arange(pool_start, available),
                    size=recent_count,
                    replace=False,
                )
            )
        while len(chosen) < active:
            chosen.add(int(rng.integers(0, available)))
        return np.fromiter(chosen, dtype=np.int64)


def recording(kind):
    """``kind`` with the RNG state after each ``_make_rows`` kept."""

    class Recording(kind):
        def __init__(self, **kwargs):
            super().__init__(**kwargs)
            self.states = []

        def _make_rows(self, rng, *args):
            table = super()._make_rows(rng, *args)
            self.states.append(rng.bit_generator.state)
            return table

    return Recording


def lines_of(table):
    return table["line"].tolist()


@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
def test_bulk_draws_keep_lines_and_rng_state(seed):
    config = configuration(seed)
    context = f"seed {seed}, configuration {config}"
    bulk = recording(URLStreamGenerator)(**config)
    scalar = recording(ScalarDrawGenerator)(**config)

    tables = [("initial_data()", bulk.initial_data(INITIAL_ROWS)[0],
               scalar.initial_data(INITIAL_ROWS)[0])]
    tables += [
        (f"chunk {index}", ours, theirs)
        for index, (ours, theirs) in enumerate(
            zip(bulk.stream(), scalar.stream(), strict=True)
        )
    ]
    assert len(tables) == config["num_chunks"] + 1, context
    for position, (name, ours, theirs) in enumerate(tables):
        assert ours.column_names == ["line"], f"{name}: {context}"
        for row, (mine, reference) in enumerate(
            zip(lines_of(ours), lines_of(theirs), strict=True)
        ):
            assert type(mine) is str, f"{name} row {row}: {context}"
            assert mine == reference, f"{name} row {row}: {context}"
        assert bulk.states[position] == scalar.states[position], (
            f"RNG state after {name}: {context}"
        )


@pytest.mark.parametrize("seed", SEEDS[:12], ids=lambda s: f"seed{s}")
def test_chunks_in_random_order_are_the_stream(seed):
    config = configuration(seed)
    context = f"seed {seed}, configuration {config}"
    in_order = list(URLStreamGenerator(**config).stream())
    generator = URLStreamGenerator(**config)
    order = ensure_rng(seed).permutation(config["num_chunks"]).tolist()
    # Once more after the permutation: a repeated index is a jump back.
    for index in order + order[:2]:
        assert lines_of(generator.chunk(index)) == lines_of(
            in_order[index]
        ), f"chunk {index} of order {order}: {context}"


def test_configurations_cover_the_axes():
    """The seeds reach every value of every axis, and the corner cases
    the shortfall loop and the recent pool have."""
    configs = [configuration(seed) for seed in SEEDS]
    for name, values in AXES.items():
        assert {c[name] for c in configs} == set(values), name
    assert any(
        c["base_features"] < c["active_per_row"] for c in configs
    )
    assert any(
        c["recent_pool"] > c["base_features"]
        + c["new_features_per_chunk"] * c["num_chunks"]
        for c in configs
    )
    assert any(
        c["recent_feature_bias"] == 1.0
        and c["recent_pool"] < c["active_per_row"]
        for c in configs
    )

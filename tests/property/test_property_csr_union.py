"""Generated property: the one-pass CSR union is ``sp.vstack``.

``stack_matrices`` builds the union of sparse feature blocks (the
proactive step's ``context.union``, and serving's ``predict_batch``)
itself: one concatenation of ``data`` and of ``indices``, ``indptr``
from each block's row ends shifted by the entries stored above it, and
one ``csr_matrix`` constructor. scipy's ``sp.vstack(format="csr")`` is
kept here as the reference. Over generated block lists — zero-row
blocks, blocks with no stored values, a single block, ``int32`` and
``int64`` index arrays mixed, widths from 1 to 2,049, duplicate and
unsorted columns — the union has the reference's ``data``, ``indices``
and ``indptr`` bytes, their dtypes and its shape. Blocks of different
widths are refused with a ``ValidationError`` naming the widths.

Everything is drawn from a ``repro.utils.rng`` seed; a failure names
the seed and ``pytest tests/property/test_property_csr_union.py -k
"seed<N>"`` replays it.
"""

import re

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import ValidationError
from repro.ml.batch import stack_matrices
from repro.utils.rng import ensure_rng

SEEDS = range(40)
WIDTHS = (1, 2, 7, 64, 1024, 2049)


def random_block(rng, width):
    """A CSR block of 0–9 rows: rows with no stored value, stored
    ``±0.0``, now and then a column stored twice or out of order, and
    index arrays in ``int32`` or ``int64``."""
    rows = int(rng.integers(0, 10))
    counts = rng.integers(0, min(width, 6) + 1, size=rows)
    if rng.random() < 0.2:
        counts[:] = 0  # a block with no stored values
    indptr = np.concatenate([[0], np.cumsum(counts)])
    indices = rng.integers(0, width, size=int(indptr[-1]))
    data = rng.standard_normal(indices.size)
    data[rng.random(data.size) < 0.1] = 0.0
    data[rng.random(data.size) < 0.1] = -0.0
    dtype = np.int64 if rng.random() < 0.3 else np.int32
    block = sp.csr_matrix(
        (data, indices.astype(dtype), indptr.astype(dtype)),
        shape=(rows, width),
    )
    # The constructor narrows what fits; keep the drawn dtype.
    block.indices = block.indices.astype(dtype)
    block.indptr = block.indptr.astype(dtype)
    return block


def draw_blocks(rng):
    width = int(WIDTHS[rng.integers(len(WIDTHS))])
    count = 1 if rng.random() < 0.2 else int(rng.integers(2, 12))
    return [random_block(rng, width) for __ in range(count)]


def replay(seed):
    return (
        "replay: pytest tests/property/test_property_csr_union.py "
        f'-k "seed{seed}"'
    )


@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
def test_union_is_the_vstack_of_its_blocks(seed):
    rng = ensure_rng(seed)
    for draw in range(8):
        blocks = draw_blocks(rng)
        got = stack_matrices(blocks)
        want = sp.vstack(blocks, format="csr")
        where = (
            f"seed={seed} draw={draw} blocks="
            f"{[(b.shape, b.indptr.dtype.name) for b in blocks]}\n"
            f"{replay(seed)}"
        )
        assert type(got) is type(want), where
        assert got.shape == want.shape, where
        for name in ("data", "indices", "indptr"):
            mine, theirs = getattr(got, name), getattr(want, name)
            assert mine.dtype == theirs.dtype, f"{name}: {where}"
            assert mine.tobytes() == theirs.tobytes(), f"{name}: {where}"


@pytest.mark.parametrize("seed", range(8), ids=lambda s: f"seed{s}")
def test_mismatched_widths_are_refused(seed):
    rng = ensure_rng(seed)
    blocks = draw_blocks(rng)
    other = 1 + blocks[0].shape[1]
    blocks.insert(int(rng.integers(len(blocks) + 1)), random_block(rng, other))
    widths = sorted({b.shape[1] for b in blocks})
    with pytest.raises(ValidationError, match=re.escape(str(widths))):
        stack_matrices(blocks)

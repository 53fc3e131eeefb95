"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.chunk import FeatureChunk, RawChunk
from repro.data.table import Table
from repro.pipeline.component import SparseRows

from tests.sparse import sparse_rows


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)


@pytest.fixture
def numeric_table() -> Table:
    """A small numeric table with a NaN for imputer tests."""
    return Table(
        {
            "a": np.array([1.0, 2.0, 3.0, 4.0]),
            "b": np.array([10.0, np.nan, 30.0, 40.0]),
            "label": np.array([0.0, 1.0, 0.0, 1.0]),
        }
    )


@pytest.fixture
def sparse_table() -> SparseRows:
    """URL-style batch: three sparse rows plus labels."""
    return sparse_rows(
        [{0: 1.0, 5: 2.0}, {1: 3.0, 5: float("nan")}, {0: 0.5}],
        labels=[1.0, -1.0, 1.0],
    )


def make_feature_chunk(
    timestamp: int, rows: int = 4, dim: int = 3, seed: int = 0
) -> FeatureChunk:
    """A small dense feature chunk for storage/sampling tests."""
    generator = np.random.default_rng(seed + timestamp)
    return FeatureChunk(
        timestamp=timestamp,
        raw_reference=timestamp,
        features=generator.standard_normal((rows, dim)),
        labels=generator.choice([-1.0, 1.0], size=rows),
    )


def make_raw_chunk(timestamp: int, rows: int = 4, seed: int = 0) -> RawChunk:
    """A small raw chunk whose table has two numeric columns."""
    generator = np.random.default_rng(seed + timestamp)
    return RawChunk(
        timestamp=timestamp,
        table=Table(
            {
                "x": generator.standard_normal(rows),
                "label": generator.choice([-1.0, 1.0], size=rows),
            }
        ),
    )


@pytest.fixture
def feature_chunk() -> FeatureChunk:
    return make_feature_chunk(0)


@pytest.fixture
def raw_chunk() -> RawChunk:
    return make_raw_chunk(0)

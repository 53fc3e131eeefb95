"""Property-based tests for incremental statistics.

The core invariant: streaming/merged statistics must agree with a
single-pass numpy computation for *any* split of the data — this is
what makes online statistics computation (§3.1) sound.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.pipeline.statistics import (
    RunningMinMax,
    RunningMoments,
    SparseMoments,
)

from tests.sparse import entries

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, width=64
)


@st.composite
def matrix_and_split(draw, max_rows=60, max_cols=4):
    rows = draw(st.integers(2, max_rows))
    cols = draw(st.integers(1, max_cols))
    data = draw(
        npst.arrays(np.float64, (rows, cols), elements=finite_floats)
    )
    split = draw(st.integers(1, rows - 1))
    return data, split


class TestRunningMomentsProperties:
    @given(matrix_and_split())
    @settings(max_examples=60, deadline=None)
    def test_split_invariance(self, case):
        data, split = case
        streamed = RunningMoments()
        streamed.update(data[:split])
        streamed.update(data[split:])
        assert np.allclose(
            streamed.mean(), data.mean(axis=0), atol=1e-6, rtol=1e-6
        )
        assert np.allclose(
            streamed.variance(), data.var(axis=0),
            atol=1e-4, rtol=1e-4,
        )

    @given(matrix_and_split())
    @settings(max_examples=60, deadline=None)
    def test_merge_equals_update(self, case):
        data, split = case
        merged = RunningMoments()
        merged.update(data[:split])
        other = RunningMoments()
        other.update(data[split:])
        merged.merge(other)
        whole = RunningMoments()
        whole.update(data)
        assert np.allclose(merged.mean(), whole.mean(), atol=1e-8)
        assert np.allclose(
            merged.variance(), whole.variance(), atol=1e-4, rtol=1e-4
        )

    @given(matrix_and_split())
    @settings(max_examples=40, deadline=None)
    def test_variance_non_negative(self, case):
        data, split = case
        moments = RunningMoments()
        moments.update(data[:split])
        moments.update(data[split:])
        assert np.all(moments.variance() >= 0)


class TestRunningMinMaxProperties:
    @given(matrix_and_split())
    @settings(max_examples=60, deadline=None)
    def test_split_invariance(self, case):
        data, split = case
        extrema = RunningMinMax()
        extrema.update(data[:split])
        extrema.update(data[split:])
        assert np.array_equal(extrema.minimum(), data.min(axis=0))
        assert np.array_equal(extrema.maximum(), data.max(axis=0))

    @given(matrix_and_split())
    @settings(max_examples=40, deadline=None)
    def test_span_non_negative(self, case):
        data, split = case
        extrema = RunningMinMax()
        extrema.update(data)
        assert np.all(extrema.span() >= 0)


class TestSparseMomentsProperties:
    @given(
        st.lists(
            st.dictionaries(
                st.integers(0, 5), finite_floats, max_size=4
            ),
            min_size=2,
            max_size=40,
        ),
        st.integers(1, 39),
    )
    @settings(max_examples=60, deadline=None)
    def test_merge_equals_single_pass(self, rows, raw_split):
        split = min(raw_split, len(rows) - 1)
        whole = SparseMoments()
        whole.update(*entries(rows))
        left = SparseMoments()
        left.update(*entries(rows[:split]))
        right = SparseMoments()
        right.update(*entries(rows[split:]))
        left.merge(right)
        for index in whole.indices():
            assert left.count(index) == whole.count(index)
            assert np.isclose(
                left.mean(index), whole.mean(index), atol=1e-6
            )
            assert np.isclose(
                left.std(index), whole.std(index),
                atol=1e-4, rtol=1e-4,
            )

"""Property-based tests for pipeline-level invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.data.table import Table
from repro.pipeline.components.assembler import FeatureAssembler
from repro.pipeline.components.imputer import MissingValueImputer
from repro.pipeline.components.scaler import MinMaxScaler, StandardScaler
from repro.pipeline.pipeline import Pipeline

bounded = st.floats(
    min_value=-1e4, max_value=1e4, allow_nan=False, width=64
)


@st.composite
def xy_tables(draw, max_rows=25):
    rows = draw(st.integers(2, max_rows))
    x = draw(npst.arrays(np.float64, rows, elements=bounded))
    y = draw(npst.arrays(np.float64, rows, elements=bounded))
    return Table({"x": x, "y": y})


def make_pipeline():
    return Pipeline(
        [
            MissingValueImputer(["x"], name="imputer"),
            StandardScaler(["x"], name="scaler"),
            FeatureAssembler(["x"], "y", name="assembler"),
        ]
    )


class TestPipelineInvariants:
    @given(xy_tables())
    @settings(max_examples=60, deadline=None)
    def test_transform_is_pure(self, table):
        """Repeated transforms of the same batch give the same output
        and leave statistics untouched."""
        pipeline = make_pipeline()
        pipeline.update_transform(table)
        first = pipeline.transform(table)
        second = pipeline.transform(table)
        assert np.allclose(first.matrix, second.matrix, equal_nan=True)
        assert np.array_equal(first.labels, second.labels)

    @given(xy_tables(), xy_tables())
    @settings(max_examples=60, deadline=None)
    def test_train_serve_consistency(self, train, serve):
        """Serving any batch after training applies exactly the
        statistics the training path built (§4.3)."""
        trained = make_pipeline()
        trained.update_transform(train)
        served = trained.transform(serve)

        # Reference: apply the statistics by hand.
        x = np.asarray(train["x"], dtype=np.float64)
        mean, std = x.mean(), x.std()
        expected = np.asarray(serve["x"], dtype=np.float64)
        expected = (expected - mean) / (std if std > 0 else 1.0)
        assert np.allclose(
            served.matrix.ravel(), expected, atol=1e-9
        )

    @given(xy_tables())
    @settings(max_examples=40, deadline=None)
    def test_reset_restores_identity(self, table):
        pipeline = make_pipeline()
        pipeline.update_transform(table)
        pipeline.reset()
        served = pipeline.transform(table)
        assert np.allclose(
            served.matrix.ravel(), np.asarray(table["x"]), atol=1e-9
        )

    @given(xy_tables())
    @settings(max_examples=40, deadline=None)
    def test_row_count_preserved_without_filters(self, table):
        pipeline = make_pipeline()
        features = pipeline.update_transform(table)
        assert features.num_rows == table.num_rows


class TestScalerProperties:
    @given(xy_tables())
    @settings(max_examples=60, deadline=None)
    def test_standard_scaler_output_statistics(self, table):
        scaler = StandardScaler(["x"])
        scaler.update(table)
        scaled = np.asarray(scaler.transform(table)["x"])
        x = np.asarray(table["x"])
        # Near-constant columns at large magnitudes are dominated by
        # floating-point noise; only assert the z-score statistics
        # when the spread is numerically meaningful.
        if x.std() > 1e-6 * (1.0 + np.abs(x).max()):
            assert abs(scaled.mean()) < 1e-6
            assert abs(scaled.std() - 1.0) < 1e-6
        else:
            assert np.all(np.isfinite(scaled))

    @given(xy_tables())
    @settings(max_examples=60, deadline=None)
    def test_minmax_scaler_in_unit_interval_on_seen_data(self, table):
        scaler = MinMaxScaler(["x"])
        scaler.update(table)
        scaled = np.asarray(scaler.transform(table)["x"])
        assert np.all(scaled >= -1e-12)
        assert np.all(scaled <= 1.0 + 1e-12)

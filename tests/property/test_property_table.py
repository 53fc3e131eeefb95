"""Property-based tests for the Table container."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.data.table import Table

finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, width=64
)


@st.composite
def tables(draw, max_rows=30, max_cols=4):
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(1, max_cols))
    names = [f"c{i}" for i in range(cols)]
    return Table(
        {
            name: draw(
                npst.arrays(np.float64, rows, elements=finite_floats)
            )
            for name in names
        }
    )


class TestTableProperties:
    @given(tables(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_filter_then_concat_partitions(self, table, data):
        """Filtering by a mask and its complement partitions the rows."""
        mask = np.array(
            data.draw(
                st.lists(
                    st.booleans(),
                    min_size=table.num_rows,
                    max_size=table.num_rows,
                )
            ),
            dtype=bool,
        )
        kept = table.filter_rows(mask)
        dropped = table.filter_rows(~mask)
        assert kept.num_rows + dropped.num_rows == table.num_rows
        for name in table.column_names:
            recombined = np.concatenate(
                [kept.column(name), dropped.column(name)]
            )
            assert sorted(recombined) == sorted(table.column(name))

    @given(tables())
    @settings(max_examples=60, deadline=None)
    def test_take_identity_permutation(self, table):
        permuted = table.take(list(range(table.num_rows)))
        assert permuted == table

    @given(tables(), st.integers(0, 40))
    @settings(max_examples=60, deadline=None)
    def test_head_bounds(self, table, count):
        head = table.head(count)
        assert head.num_rows == min(count, table.num_rows)

    @given(tables())
    @settings(max_examples=60, deadline=None)
    def test_with_column_preserves_others(self, table):
        grown = table.with_column(
            "fresh", np.zeros(table.num_rows)
        )
        for name in table.column_names:
            assert np.array_equal(
                grown.column(name), table.column(name)
            )
        assert grown.num_columns == table.num_columns + 1

    @given(tables())
    @settings(max_examples=60, deadline=None)
    def test_num_values_equals_cells_for_numeric(self, table):
        assert table.num_values == table.num_rows * table.num_columns

    @given(st.lists(tables(max_cols=2), min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_concat_row_count(self, parts):
        # Harmonise schemas: keep only the first column name of each.
        base = parts[0].column_names
        usable = [p for p in parts if p.column_names == base]
        merged = Table.concat(usable)
        assert merged.num_rows == sum(p.num_rows for p in usable)

    @given(tables())
    @settings(max_examples=60, deadline=None)
    def test_to_matrix_roundtrip(self, table):
        matrix = table.to_matrix()
        assert matrix.shape == (table.num_rows, table.num_columns)
        for position, name in enumerate(table.column_names):
            assert np.array_equal(
                matrix[:, position], table.column(name)
            )

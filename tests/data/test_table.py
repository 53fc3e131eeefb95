"""Unit tests for the column-oriented Table."""

import numpy as np
import pytest

from repro.data.table import Table, is_frozen
from repro.exceptions import SchemaError


class TestConstruction:
    def test_empty_table(self):
        table = Table()
        assert table.num_rows == 0
        assert table.num_columns == 0
        assert table.column_names == []

    def test_columns_and_rows(self):
        table = Table({"a": [1, 2, 3], "b": [4.0, 5.0, 6.0]})
        assert table.num_rows == 3
        assert table.num_columns == 2
        assert table.column_names == ["a", "b"]

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(SchemaError, match="rows"):
            Table({"a": [1, 2], "b": [1, 2, 3]})

    def test_2d_column_rejected(self):
        with pytest.raises(SchemaError, match="1-D"):
            Table({"a": np.zeros((2, 2))})

    def test_len_matches_num_rows(self):
        assert len(Table({"a": [1, 2]})) == 2

    def test_preserves_insertion_order(self):
        table = Table({"z": [1], "a": [2], "m": [3]})
        assert table.column_names == ["z", "a", "m"]


class TestAccess:
    def test_column_returns_array(self):
        table = Table({"a": [1, 2]})
        assert np.array_equal(table.column("a"), np.array([1, 2]))

    def test_getitem_alias(self):
        table = Table({"a": [1, 2]})
        assert np.array_equal(table["a"], table.column("a"))

    def test_missing_column_names_available(self):
        table = Table({"a": [1]})
        with pytest.raises(SchemaError, match="available.*'a'"):
            table.column("nope")

    def test_contains(self):
        table = Table({"a": [1]})
        assert "a" in table
        assert "b" not in table

    def test_iter_yields_names(self):
        table = Table({"a": [1], "b": [2]})
        assert list(table) == ["a", "b"]


class TestFunctionalUpdates:
    def test_with_column_adds(self):
        table = Table({"a": [1, 2]})
        grown = table.with_column("b", [3, 4])
        assert "b" in grown
        assert "b" not in table  # original untouched

    def test_with_column_replaces(self):
        table = Table({"a": [1, 2]})
        replaced = table.with_column("a", [9, 9])
        assert np.array_equal(replaced["a"], [9, 9])

    def test_with_column_wrong_length(self):
        table = Table({"a": [1, 2]})
        with pytest.raises(SchemaError):
            table.with_column("b", [1, 2, 3])

    def test_with_column_on_empty_table_sets_length(self):
        table = Table().with_column("a", [1, 2, 3])
        assert table.num_rows == 3

    def test_with_columns_bulk(self):
        table = Table({"a": [1]}).with_columns({"b": [2], "c": [3]})
        assert table.column_names == ["a", "b", "c"]

    def test_without_columns(self):
        table = Table({"a": [1], "b": [2]})
        assert table.without_columns(["a"]).column_names == ["b"]

    def test_without_unknown_column_raises(self):
        with pytest.raises(SchemaError, match="unknown"):
            Table({"a": [1]}).without_columns(["zz"])

    def test_select_orders_columns(self):
        table = Table({"a": [1], "b": [2], "c": [3]})
        assert table.select(["c", "a"]).column_names == ["c", "a"]

    def test_filter_rows(self):
        table = Table({"a": [1, 2, 3]})
        kept = table.filter_rows([True, False, True])
        assert np.array_equal(kept["a"], [1, 3])

    def test_filter_rows_wrong_mask_length(self):
        with pytest.raises(SchemaError, match="mask"):
            Table({"a": [1, 2]}).filter_rows([True])

    def test_take(self):
        table = Table({"a": [10, 20, 30]})
        assert np.array_equal(table.take([2, 0])["a"], [30, 10])

    def test_head(self):
        table = Table({"a": [1, 2, 3]})
        assert table.head(2).num_rows == 2


class TestConcatAndConversion:
    def test_concat(self):
        left = Table({"a": [1], "b": [2]})
        right = Table({"a": [3], "b": [4]})
        merged = Table.concat([left, right])
        assert np.array_equal(merged["a"], [1, 3])

    def test_concat_schema_mismatch(self):
        with pytest.raises(SchemaError, match="mismatch"):
            Table.concat([Table({"a": [1]}), Table({"b": [1]})])

    def test_concat_empty_list(self):
        assert Table.concat([]).num_rows == 0

    def test_to_matrix(self):
        table = Table({"a": [1.0, 2.0], "b": [3.0, 4.0]})
        matrix = table.to_matrix()
        assert matrix.shape == (2, 2)
        assert matrix.dtype == np.float64

    def test_to_matrix_column_subset(self):
        table = Table({"a": [1.0], "b": [2.0]})
        assert table.to_matrix(["b"]).tolist() == [[2.0]]

    def test_to_matrix_no_columns(self):
        assert Table({"a": [1.0]}).to_matrix([]).shape == (1, 0)

    def test_to_dict_is_shallow_copy(self):
        table = Table({"a": [1]})
        payload = table.to_dict()
        payload["b"] = np.array([9])
        assert "b" not in table

    def test_equality(self):
        assert Table({"a": [1]}) == Table({"a": [1]})
        assert Table({"a": [1]}) != Table({"a": [2]})
        assert Table({"a": [1]}) != Table({"b": [1]})

    def test_nbytes_positive(self):
        assert Table({"a": np.zeros(8)}).nbytes() > 0


class TestNumValues:
    def test_numeric_counts_cells(self):
        table = Table({"a": [1.0, 2.0], "b": [3.0, 4.0]})
        assert table.num_values == 4
        assert table.num_rows * table.num_columns == 4

    def test_string_column_counts_tokens(self):
        lines = np.array(["1 0:1.0 2:3.0", "-1 4:2.0"], dtype=object)
        table = Table({"line": lines})
        assert table.num_values == 3 + 2

    def test_num_values_cached(self):
        table = Table({"a": [1.0, 2.0]})
        assert table.num_values == table.num_values


class TestDigest:
    def test_identical_content_identical_digest(self):
        assert (
            Table({"a": [1.0, 2.0]}).digest()
            == Table({"a": [1.0, 2.0]}).digest()
        )

    def test_value_change_changes_digest(self):
        assert (
            Table({"a": [1.0, 2.0]}).digest()
            != Table({"a": [1.0, 2.5]}).digest()
        )

    def test_column_name_participates(self):
        assert (
            Table({"a": [1.0]}).digest() != Table({"b": [1.0]}).digest()
        )

    def test_dtype_participates(self):
        ints = Table({"a": np.array([1, 2], dtype=np.int32)})
        longs = Table({"a": np.array([1, 2], dtype=np.int64)})
        assert ints.digest() != longs.digest()

    def test_object_columns_supported(self):
        """Cells that are neither numbers nor text hash their repr."""
        rows = np.empty(2, dtype=object)
        rows[0] = (0, 1.0)
        rows[1] = None
        same = np.empty(2, dtype=object)
        same[0] = (0, 1.0)
        same[1] = None
        assert (
            Table({"f": rows}).digest() == Table({"f": same}).digest()
        )
        same[0] = (0, 1.5)
        assert (
            Table({"f": rows}).digest() != Table({"f": same}).digest()
        )

    def test_string_cells_supported(self):
        lines = np.array(["1 0:1.0", "-1 4:2.0"], dtype=object)
        table = Table({"line": lines})
        assert table.digest() == Table({"line": lines.copy()}).digest()

    def test_digest_is_hex_sha256(self):
        digest = Table({"a": [1.0]}).digest()
        assert len(digest) == 64
        int(digest, 16)


class TestFrozen:
    def test_read_only_view_of_a_writable_array_is_not_frozen(self):
        base = np.arange(4.0)
        table = Table({"a": base[:]})
        table.freeze()
        assert not is_frozen(table.column("a"))
        assert not table.frozen
        base[0] = 9.0
        assert table.column("a")[0] == 9.0
        base.flags.writeable = False
        assert table.frozen

    def test_a_base_that_is_not_an_array_counts_as_owned(self):
        array = np.frombuffer(bytearray(16), dtype=np.float64)
        assert not is_frozen(array)
        array.flags.writeable = False
        assert is_frozen(array)

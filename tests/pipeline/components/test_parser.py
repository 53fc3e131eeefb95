"""Unit tests for the svmlight input parser."""

import math

import numpy as np
import pytest

from repro.data.table import Table
from repro.exceptions import PipelineError
from repro.pipeline.component import ComponentKind, SparseRows
from repro.pipeline.components.parser import SvmLightParser

from tests.sparse import row_dict, row_dicts


def lines_table(*lines: str) -> Table:
    return Table({"line": np.array(lines, dtype=object)})


class TestSvmLightParser:
    def test_parses_labels_and_features(self):
        parser = SvmLightParser()
        table = parser.transform(
            lines_table("1 0:1.5 3:2.0", "-1 1:0.25")
        )
        assert np.array_equal(table.labels, [1.0, -1.0])
        assert row_dicts(table) == [{0: 1.5, 3: 2.0}, {1: 0.25}]

    def test_line_column_removed(self):
        """Nothing of the raw text survives: the output is the batch."""
        rows = SvmLightParser().transform(lines_table("1 0:1.0"))
        assert isinstance(rows, SparseRows)
        assert rows.indptr.tolist() == [0, 1]

    def test_nan_values_parsed(self):
        table = SvmLightParser().transform(lines_table("1 2:nan"))
        assert math.isnan(row_dict(table, 0)[2])

    def test_label_only_line(self):
        table = SvmLightParser().transform(lines_table("-1"))
        assert row_dict(table, 0) == {}

    def test_empty_line_rejected(self):
        with pytest.raises(PipelineError, match="empty"):
            SvmLightParser().transform(lines_table(""))

    def test_bad_label_rejected(self):
        with pytest.raises(PipelineError, match="bad label"):
            SvmLightParser().transform(lines_table("spam 0:1"))

    def test_bad_token_rejected(self):
        with pytest.raises(PipelineError, match="bad token"):
            SvmLightParser().transform(lines_table("1 nocolon"))
        with pytest.raises(PipelineError, match="bad token"):
            SvmLightParser().transform(lines_table("1 a:b"))

    def test_custom_column_names(self):
        parser = SvmLightParser(line_column="raw")
        rows = parser.transform(
            Table({"raw": np.array(["1 0:2.0"], dtype=object)})
        )
        assert row_dicts(rows) == [{0: 2.0}]

    def test_repeated_index_rejected(self):
        """A second value for an index must not silently win."""
        with pytest.raises(PipelineError, match="listed twice") as info:
            SvmLightParser().transform(
                lines_table("1 0:1.0", "1 5:1.0 7:3.0 5:2.0")
            )
        assert "'1 5:1.0 7:3.0 5:2.0'" in str(info.value)
        # The same index on two different lines is fine.
        rows = SvmLightParser().transform(lines_table("1 5:1.0", "1 5:2.0"))
        assert row_dicts(rows) == [{5: 1.0}, {5: 2.0}]

    def test_index_outside_int64_rejected(self):
        for index in (2**63, -(2**63) - 1, 10**30):
            line = f"1 3:1.0 {index}:1.0"
            with pytest.raises(PipelineError, match="int64") as info:
                SvmLightParser().transform(lines_table(line))
            assert repr(line) in str(info.value)
        rows = SvmLightParser().transform(
            lines_table(f"1 {2**63 - 1}:1.0 {-(2**63)}:2.0")
        )
        assert row_dicts(rows) == [{2**63 - 1: 1.0, -(2**63): 2.0}]

    def test_first_malformed_line_is_named(self):
        with pytest.raises(PipelineError, match="bad token '7'"):
            SvmLightParser().transform(
                lines_table("1 0:1.0", "1 7 3:4:5", "spam")
            )

    def test_colons_must_pair_within_a_token(self):
        """Tokens whose colons only balance across tokens are bad."""
        for line in ("1 5 3:4:5", "1 5: :3", "1 1: 2", "1 :", "1 5:"):
            with pytest.raises(PipelineError, match="bad token"):
                SvmLightParser().transform(lines_table("1 0:1", line))

    def test_is_stateless(self):
        parser = SvmLightParser()
        assert not parser.is_stateful
        parser.update(lines_table("1 0:1.0"))  # no-op, must not raise

    def test_kind(self):
        assert (
            SvmLightParser.kind is ComponentKind.DATA_TRANSFORMATION
        )

    def test_requires_table(self):
        from repro.pipeline.component import Features

        with pytest.raises(PipelineError, match="expects a Table"):
            SvmLightParser().transform(
                Features(matrix=np.ones((1, 1)), labels=np.ones(1))
            )

    def test_roundtrip_with_generator_format(self):
        """The URL generator's lines must parse cleanly."""
        from repro.datasets.url import URLStreamGenerator

        generator = URLStreamGenerator(
            num_chunks=2, rows_per_chunk=5, seed=1
        )
        table = SvmLightParser().transform(generator.chunk(0))
        assert table.num_rows == 5
        assert set(np.unique(table.labels)) <= {-1.0, 1.0}

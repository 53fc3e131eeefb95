"""Tests for the file I/O readers and writers."""

import math

import numpy as np
import pytest

from repro.data.table import Table
from repro.exceptions import ValidationError
from repro.io import (
    iter_csv_chunks,
    iter_svmlight_chunks,
    read_csv,
    read_svmlight,
    write_csv,
    write_svmlight,
)


class TestSvmLight:
    def test_write_read_roundtrip(self, tmp_path):
        path = tmp_path / "data.svm"
        write_svmlight(
            path,
            labels=[1.0, -1.0],
            rows=[{0: 1.5, 3: 2.0}, {7: 0.25}],
        )
        table = read_svmlight(path)
        assert table.num_rows == 2
        # Integral values are written without a decimal point.
        assert table["line"][0] == "1 0:1.5 3:2"
        assert table["line"][1] == "-1 7:0.25"

    def test_roundtrip_through_parser(self, tmp_path):
        from repro.pipeline.components.parser import SvmLightParser
        from tests.sparse import row_dict

        path = tmp_path / "data.svm"
        rows = [{0: 1.5, 3: float("nan")}, {2: -0.5}]
        write_svmlight(path, labels=[1.0, -1.0], rows=rows)
        parsed = SvmLightParser().transform(read_svmlight(path))
        assert parsed.labels.tolist() == [1.0, -1.0]
        assert row_dict(parsed, 1) == {2: -0.5}
        assert math.isnan(row_dict(parsed, 0)[3])

    def test_chunking(self, tmp_path):
        path = tmp_path / "data.svm"
        write_svmlight(
            path, labels=[1.0] * 7, rows=[{0: 1.0}] * 7
        )
        chunks = list(iter_svmlight_chunks(path, rows_per_chunk=3))
        assert [c.num_rows for c in chunks] == [3, 3, 1]

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "data.svm"
        path.write_text("# header\n\n1 0:1\n\n-1 1:2\n")
        table = read_svmlight(path)
        assert table.num_rows == 2

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.svm"
        path.write_text("")
        assert read_svmlight(path).num_rows == 0
        assert list(iter_svmlight_chunks(path, 5)) == []

    def test_mismatched_lengths_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            write_svmlight(
                tmp_path / "x.svm", labels=[1.0], rows=[]
            )

    def test_negative_index_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            write_svmlight(
                tmp_path / "x.svm", labels=[1.0], rows=[{-1: 2.0}]
            )

    def test_deployment_stream_from_file(self, tmp_path):
        """An svmlight file can drive a deployment directly."""
        from repro.datasets.url import URLStreamGenerator

        generator = URLStreamGenerator(
            num_chunks=2, rows_per_chunk=4, seed=0
        )
        lines = [
            line
            for chunk in generator.stream()
            for line in chunk["line"]
        ]
        path = tmp_path / "stream.svm"
        path.write_text("\n".join(lines) + "\n")
        chunks = list(iter_svmlight_chunks(path, rows_per_chunk=4))
        assert len(chunks) == 2
        assert chunks[0] == generator.chunk(0)


class TestCsv:
    def test_write_read_roundtrip(self, tmp_path):
        path = tmp_path / "data.csv"
        table = Table(
            {"a": [1.0, 2.0], "b": np.array(["x", "y"], dtype=object)}
        )
        write_csv(path, table)
        restored = read_csv(path)
        assert np.array_equal(restored["a"], [1.0, 2.0])
        assert restored["b"].tolist() == ["x", "y"]

    def test_chunking(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(path, Table({"a": np.arange(5.0)}))
        chunks = list(iter_csv_chunks(path, rows_per_chunk=2))
        assert [c.num_rows for c in chunks] == [2, 2, 1]
        assert chunks[1]["a"].tolist() == [2.0, 3.0]

    def test_column_subset_and_order(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(path, Table({"a": [1.0], "b": [2.0], "c": [3.0]}))
        table = read_csv(path, columns=["c", "a"])
        assert table.column_names == ["c", "a"]

    def test_unknown_column_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(path, Table({"a": [1.0]}))
        with pytest.raises(ValidationError, match="not in header"):
            read_csv(path, columns=["zz"])

    def test_empty_fields_become_nan(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a\n1.5\n\n2.5\n")
        # the blank line is skipped entirely; write one with a field
        path.write_text('a,b\n1.5,x\n,y\n')
        table = read_csv(path)
        assert np.isnan(table["a"][1])
        assert table["b"].tolist() == ["x", "y"]

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(ValidationError, match="fields"):
            read_csv(path)

    def test_mixed_type_column_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a\n1.0\nbanana\n")
        with pytest.raises(ValidationError, match="non-numeric"):
            read_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("")
        assert read_csv(path).num_rows == 0

    def test_taxi_pipeline_from_csv(self, tmp_path):
        """A CSV extract drives the Taxi pipeline end to end."""
        from repro.datasets.taxi import (
            TaxiStreamGenerator,
            make_taxi_pipeline,
        )

        generator = TaxiStreamGenerator(
            num_chunks=1, rows_per_chunk=20, seed=0
        )
        chunk = generator.chunk(0)
        path = tmp_path / "trips.csv"
        write_csv(path, chunk)
        restored = next(iter_csv_chunks(path, rows_per_chunk=20))
        pipeline = make_taxi_pipeline()
        features = pipeline.update_transform(restored)
        expected = make_taxi_pipeline().update_transform(
            chunk
        )
        assert np.allclose(features.matrix, expected.matrix)

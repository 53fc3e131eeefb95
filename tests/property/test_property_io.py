"""Property-based round-trip tests for the file I/O layer."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.table import Table
from repro.io import read_csv, read_svmlight, write_csv, write_svmlight
from repro.pipeline.components.parser import SvmLightParser

from tests.sparse import row_dicts

finite_values = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, width=64
)
sparse_rows = st.lists(
    st.dictionaries(st.integers(0, 500), finite_values, max_size=6),
    min_size=1,
    max_size=12,
)
labels_strategy = st.lists(
    st.sampled_from([-1.0, 1.0]), min_size=1, max_size=12
)


class TestSvmLightRoundtrip:
    @given(sparse_rows, st.data())
    @settings(max_examples=50, deadline=None)
    def test_write_parse_roundtrip(self, rows, data):
        labels = data.draw(
            st.lists(
                st.sampled_from([-1.0, 1.0]),
                min_size=len(rows),
                max_size=len(rows),
            )
        )
        with tempfile.TemporaryDirectory() as workdir:
            path = Path(workdir) / "roundtrip.svm"
            write_svmlight(path, labels, rows)
            parsed = SvmLightParser().transform(read_svmlight(path))
        assert parsed.labels.tolist() == labels
        for original, restored in zip(rows, row_dicts(parsed)):
            assert set(restored) == set(original)
            for index, value in original.items():
                assert restored[index] == value


class TestCsvRoundtrip:
    @given(
        st.lists(finite_values, min_size=1, max_size=20),
        # Letters only: a digit-only tag like "0" would legitimately
        # be re-typed as a float by the type-inferring reader.
        st.lists(
            st.text(
                alphabet=st.characters(
                    whitelist_categories=("Lu", "Ll")
                ),
                min_size=1,
                max_size=8,
            ),
            min_size=1,
            max_size=20,
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_numeric_and_text_columns(self, numbers, texts):
        size = min(len(numbers), len(texts))
        table = Table(
            {
                "value": np.asarray(numbers[:size]),
                "tag": np.array(texts[:size], dtype=object),
            }
        )
        with tempfile.TemporaryDirectory() as workdir:
            path = Path(workdir) / "roundtrip.csv"
            write_csv(path, table)
            restored = read_csv(path)
        assert np.allclose(
            restored["value"], table["value"], rtol=1e-12
        )
        assert restored["tag"].tolist() == table["tag"].tolist()

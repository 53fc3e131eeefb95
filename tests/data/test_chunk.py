"""Unit tests for raw/feature chunks and stubs."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.data.chunk import ChunkStub, FeatureChunk, RawChunk
from repro.data.table import Table
from repro.exceptions import ValidationError


class TestRawChunk:
    def test_basic_properties(self):
        chunk = RawChunk(timestamp=3, table=Table({"a": [1, 2]}))
        assert chunk.timestamp == 3
        assert chunk.num_rows == 2
        assert chunk.nbytes() > 0

    def test_negative_timestamp_rejected(self):
        with pytest.raises(ValidationError, match="timestamp"):
            RawChunk(timestamp=-1, table=Table({"a": [1]}))

    def test_frozen(self):
        chunk = RawChunk(timestamp=0, table=Table({"a": [1]}))
        with pytest.raises(AttributeError):
            chunk.timestamp = 5


class TestFeatureChunk:
    def _dense(self, timestamp=0):
        return FeatureChunk(
            timestamp=timestamp,
            raw_reference=timestamp,
            features=np.ones((3, 2)),
            labels=np.array([1.0, -1.0, 1.0]),
        )

    def test_dense_properties(self):
        chunk = self._dense()
        assert chunk.num_rows == 3
        assert chunk.num_features == 2

    def test_sparse_properties(self):
        chunk = FeatureChunk(
            timestamp=0,
            raw_reference=0,
            features=sp.csr_matrix(np.eye(3)),
            labels=np.ones(3),
        )
        assert chunk.num_features == 3

    def test_nbytes_dense_vs_sparse(self):
        dense = self._dense()
        sparse = FeatureChunk(
            timestamp=0,
            raw_reference=0,
            features=sp.csr_matrix((3, 1000)),
            labels=np.ones(3),
        )
        # An empty sparse matrix stores almost nothing.
        assert sparse.nbytes() < 1000 * 3 * 8
        assert dense.nbytes() >= 3 * 2 * 8

    def test_label_length_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="rows"):
            FeatureChunk(
                timestamp=0,
                raw_reference=0,
                features=np.ones((3, 2)),
                labels=np.ones(2),
            )

    def test_1d_features_rejected(self):
        with pytest.raises(ValidationError, match="2-D"):
            FeatureChunk(
                timestamp=0,
                raw_reference=0,
                features=np.ones(3),
                labels=np.ones(3),
            )

    def test_negative_timestamp_rejected(self):
        with pytest.raises(ValidationError):
            FeatureChunk(
                timestamp=-2,
                raw_reference=0,
                features=np.ones((1, 1)),
                labels=np.ones(1),
            )


class TestChunkStub:
    def test_of_copies_identifiers(self):
        chunk = FeatureChunk(
            timestamp=7,
            raw_reference=7,
            features=np.ones((1, 1)),
            labels=np.ones(1),
        )
        stub = ChunkStub.of(chunk)
        assert stub.timestamp == 7
        assert stub.raw_reference == 7

    def test_stub_is_lightweight(self):
        stub = ChunkStub(timestamp=1, raw_reference=1)
        assert not hasattr(stub, "features")

"""Timestamped data chunks.

Stage 1 of the paper's workflow (§3, Figure 1) discretizes the incoming
training stream into small chunks; the creation timestamp is both the
unique identifier and the recency indicator. Two chunk kinds exist:

* :class:`RawChunk` — unprocessed rows as a :class:`~repro.data.table.Table`.
* :class:`FeatureChunk` — the pipeline's output for one raw chunk: a
  feature matrix plus label vector, carrying a reference (the raw
  chunk's timestamp) back to its origin for re-materialization.

A :class:`ChunkStub` is what remains after dynamic materialization
evicts a feature chunk's payload: identifier and raw reference only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np
import scipy.sparse as sp

from repro.data.table import Table
from repro.exceptions import ValidationError

FeatureMatrix = Union[np.ndarray, sp.csr_matrix]


@dataclass(frozen=True)
class RawChunk:
    """One discretized unit of raw training data.

    Attributes
    ----------
    timestamp:
        Monotonically increasing integer id assigned by the data
        manager; doubles as the recency indicator.
    table:
        The raw rows.
    """

    timestamp: int
    table: Table

    def __post_init__(self) -> None:
        if self.timestamp < 0:
            raise ValidationError(
                f"chunk timestamp must be >= 0, got {self.timestamp}"
            )

    @property
    def num_rows(self) -> int:
        return self.table.num_rows

    def nbytes(self) -> int:
        """Approximate payload size in bytes."""
        return self.table.nbytes()


@dataclass(frozen=True)
class FeatureChunk:
    """The preprocessed (materialized) form of one raw chunk.

    Attributes
    ----------
    timestamp:
        The feature chunk's own id. Equals ``raw_reference`` in this
        implementation because preprocessing is 1:1 with raw chunks.
    raw_reference:
        Timestamp of the originating raw chunk (§3.2: kept so an evicted
        chunk can be re-materialized).
    features:
        2-D feature matrix — dense ndarray or CSR sparse matrix.
    labels:
        1-D label vector aligned with ``features`` rows.
    """

    timestamp: int
    raw_reference: int
    features: FeatureMatrix
    labels: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.timestamp < 0:
            raise ValidationError(
                f"chunk timestamp must be >= 0, got {self.timestamp}"
            )
        if self.features.ndim != 2:
            raise ValidationError(
                f"features must be 2-D, got shape {self.features.shape}"
            )
        labels = np.asarray(self.labels)
        if labels.ndim != 1:
            raise ValidationError(
                f"labels must be 1-D, got shape {labels.shape}"
            )
        if self.features.shape[0] != len(labels):
            raise ValidationError(
                f"features have {self.features.shape[0]} rows but labels "
                f"have {len(labels)}"
            )

    @property
    def num_rows(self) -> int:
        return int(self.features.shape[0])

    @property
    def num_features(self) -> int:
        return int(self.features.shape[1])

    def nbytes(self) -> int:
        """Approximate payload size in bytes (sparse-aware)."""
        labels = np.asarray(self.labels)
        if sp.issparse(self.features):
            matrix = self.features
            payload = (
                matrix.data.nbytes + matrix.indices.nbytes
                + matrix.indptr.nbytes
            )
        else:
            payload = self.features.nbytes
        return int(payload + labels.nbytes)


@dataclass(frozen=True)
class ChunkStub:
    """Placeholder left behind when a feature chunk's payload is evicted.

    Retains only the identifier and the reference to the raw chunk, per
    §3.2 of the paper ("only keeps the unique identifier and the
    reference to the raw data chunk").
    """

    timestamp: int
    raw_reference: int

    @staticmethod
    def of(chunk: FeatureChunk) -> "ChunkStub":
        """Build the stub for ``chunk``."""
        return ChunkStub(
            timestamp=chunk.timestamp, raw_reference=chunk.raw_reference
        )

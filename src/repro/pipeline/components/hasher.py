"""Feature hashing (the hashing trick).

Terminal component of the URL pipeline: maps sparse ``{index: value}``
rows into a fixed-width :class:`scipy.sparse.csr_matrix` by hashing each
feature index into one of ``num_features`` buckets. Signed hashing
(sign drawn from a hash bit) keeps collisions unbiased in expectation.

Hashing is stateless and deterministic — independent of
``PYTHONHASHSEED`` — via CRC-32, so a model trained before a restart
keeps meaning after it. §3.2.1 of the paper notes that hashing output
must be stored sparse to preserve the O(p) materialization bound; this
component emits CSR accordingly.
"""

from __future__ import annotations

import zlib
from typing import Tuple

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ValidationError
from repro.pipeline.component import (
    Batch,
    ComponentKind,
    Features,
    StatelessComponent,
)


def hash_index(index: int, num_features: int) -> Tuple[int, float]:
    """Map a feature index to ``(bucket, sign)`` deterministically.

    The bucket comes from CRC-32 of the decimal index modulo
    ``num_features``; the sign from the hash's top bit.
    """
    digest = zlib.crc32(b"%d" % index)
    bucket = digest % num_features
    sign = 1.0 if digest & 0x80000000 == 0 else -1.0
    return bucket, sign


class FeatureHasher(StatelessComponent):
    """Hash sparse-dict rows into a fixed-width CSR matrix + labels.

    Parameters
    ----------
    num_features:
        Output dimensionality (buckets). Powers of two are customary
        but not required.
    features_column, label_column:
        Input columns (as produced by the URL parser).
    signed:
        Use signed hashing (recommended); unsigned accumulates positive
        collision bias.
    """

    kind = ComponentKind.FEATURE_EXTRACTION

    def __init__(
        self,
        num_features: int,
        features_column: str = "features",
        label_column: str = "label",
        signed: bool = True,
        name: str | None = None,
    ) -> None:
        super().__init__(name)
        if num_features < 1:
            raise ValidationError(
                f"num_features must be >= 1, got {num_features}"
            )
        self.num_features = int(num_features)
        self.features_column = features_column
        self.label_column = label_column
        self.signed = signed

    def transform(self, batch: Batch) -> Features:
        self._require_table(batch)
        rows = batch.column(self.features_column)
        labels = np.asarray(
            batch.column(self.label_column), dtype=np.float64
        )
        data: list[float] = []
        indices: list[int] = []
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        width = self.num_features
        for position, row in enumerate(rows):
            # Aggregate duplicate buckets within a row so CSR stays
            # canonical even under collisions.
            bucket_values: dict[int, float] = {}
            for index, value in row.items():
                bucket, sign = hash_index(index, width)
                contribution = value * sign if self.signed else value
                bucket_values[bucket] = (
                    bucket_values.get(bucket, 0.0) + contribution
                )
            ordered = sorted(bucket_values.items())
            indices.extend(bucket for bucket, __ in ordered)
            data.extend(value for __, value in ordered)
            indptr[position + 1] = len(indices)
        matrix = sp.csr_matrix(
            (
                np.asarray(data, dtype=np.float64),
                np.asarray(indices, dtype=np.int64),
                indptr,
            ),
            shape=(len(rows), width),
        )
        return Features(matrix=matrix, labels=labels)

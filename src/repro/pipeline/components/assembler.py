"""Terminal assembler: Table columns → model-ready Features.

The last component of a dense pipeline stacks the chosen feature
columns into a matrix and pulls out the label column. An optional
label transform (e.g. ``log1p`` for the Taxi RMSLE target) is applied
here so the model always sees the training-space target.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.data.table import Table
from repro.exceptions import ValidationError
from repro.pipeline.component import (
    Batch,
    ComponentKind,
    Features,
    StatelessComponent,
)


class FeatureAssembler(StatelessComponent):
    """Stack feature columns into a dense matrix and extract labels.

    Parameters
    ----------
    feature_columns:
        Columns forming the feature matrix, in order.
    label_column:
        Column holding the raw target.
    label_transform:
        Optional vectorised function applied to the raw target (the
        Taxi pipeline trains on ``log1p(duration)``).
    """

    kind = ComponentKind.FEATURE_EXTRACTION

    def __init__(
        self,
        feature_columns: Sequence[str],
        label_column: str,
        label_transform: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        name: str | None = None,
    ) -> None:
        super().__init__(name)
        if not feature_columns:
            raise ValidationError(
                "assembler needs at least one feature column"
            )
        self.feature_columns = list(feature_columns)
        self.label_column = label_column
        self.label_transform = label_transform

    def transform(self, batch: Batch) -> Features:
        self._require_table(batch)
        matrix = batch.to_matrix(self.feature_columns)
        labels = np.asarray(
            batch.column(self.label_column), dtype=np.float64
        )
        if self.label_transform is not None:
            labels = np.asarray(
                self.label_transform(labels), dtype=np.float64
            )
        return Features(matrix=matrix, labels=labels)

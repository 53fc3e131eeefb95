"""One-hot encoding with an incremental vocabulary.

§3.2.1 of the paper analyses one-hot encoding as the canonical
feature-extraction component whose dense output would be O(p²) in the
worst case, and whose sparse representation restores O(p). This
encoder therefore emits a :class:`scipy.sparse.csr_matrix`.

It is a terminal component: it combines pass-through numeric columns
with the encoded categorical columns into a single sparse
:class:`~repro.pipeline.component.Features` batch. The vocabulary (a
:class:`~repro.pipeline.statistics.CategoryTable` per column) grows
incrementally during the online pass; categories never seen get an
all-zero encoding, so serving never fails on novel values.

Note: the encoded width grows as new categories arrive, so downstream
models must either be sized for a known category budget
(``max_categories``) or tolerate re-dimensioning. With
``max_categories`` set, the width is fixed up front and overflow
categories share the zero vector.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from repro.exceptions import PipelineError, ValidationError
from repro.pipeline.component import (
    Batch,
    ComponentKind,
    Features,
    PipelineComponent,
)
from repro.pipeline.statistics import CategoryTable


class OneHotEncoder(PipelineComponent):
    """Encode categorical columns one-hot into a sparse Features batch.

    Parameters
    ----------
    categorical_columns:
        Columns to encode (values may be any hashable scalars).
    label_column:
        Target column.
    numeric_columns:
        Columns passed through unchanged ahead of the encoded block.
    max_categories:
        Optional fixed per-column category budget. When set, output
        width is ``len(numeric) + len(categorical) * max_categories``
        and stays constant; otherwise the width tracks the vocabulary.
    """

    kind = ComponentKind.FEATURE_EXTRACTION

    def __init__(
        self,
        categorical_columns: Sequence[str],
        label_column: str,
        numeric_columns: Sequence[str] = (),
        max_categories: Optional[int] = None,
        name: str | None = None,
    ) -> None:
        super().__init__(name)
        if not categorical_columns:
            raise ValidationError(
                "encoder needs at least one categorical column"
            )
        if max_categories is not None and max_categories < 1:
            raise ValidationError(
                f"max_categories must be >= 1, got {max_categories}"
            )
        self.categorical_columns = list(categorical_columns)
        self.numeric_columns = list(numeric_columns)
        self.label_column = label_column
        self.max_categories = max_categories
        self._tables: Dict[str, CategoryTable] = {
            column: CategoryTable() for column in self.categorical_columns
        }

    # ------------------------------------------------------------------
    def update(self, batch: Batch) -> None:
        table = self._require_table(batch)
        for column in self.categorical_columns:
            self._tables[column].update(table.column(column).tolist())

    def transform(self, batch: Batch) -> Features:
        table = self._require_table(batch)
        rows = table.num_rows
        widths = self._column_widths()
        offsets = self._column_offsets(widths)
        numeric_width = len(self.numeric_columns)
        total_width = numeric_width + sum(widths.values())

        data: List[float] = []
        col_indices: List[int] = []
        row_indices: List[int] = []

        for position, column in enumerate(self.numeric_columns):
            values = np.asarray(table.column(column), dtype=np.float64)
            nonzero = np.flatnonzero(values)
            data.extend(values[nonzero])
            col_indices.extend([position] * len(nonzero))
            row_indices.extend(nonzero.tolist())

        for column in self.categorical_columns:
            vocabulary = self._tables[column]
            encoded = vocabulary.encode(table.column(column).tolist())
            base = numeric_width + offsets[column]
            budget = widths[column]
            for row, slot in enumerate(encoded):
                if 0 <= slot < budget:
                    data.append(1.0)
                    col_indices.append(base + int(slot))
                    row_indices.append(row)

        matrix = sp.csr_matrix(
            (data, (row_indices, col_indices)),
            shape=(rows, total_width),
            dtype=np.float64,
        )
        labels = np.asarray(
            table.column(self.label_column), dtype=np.float64
        )
        return Features(matrix=matrix, labels=labels)

    # ------------------------------------------------------------------
    def vocabulary(self, column: str) -> List:
        """Known categories of ``column`` in first-seen order."""
        if column not in self._tables:
            raise PipelineError(
                f"{self.name}: {column!r} is not a categorical column"
            )
        return self._tables[column].categories()

    @property
    def output_width(self) -> int:
        """Current total output dimensionality."""
        widths = self._column_widths()
        return len(self.numeric_columns) + sum(widths.values())

    def _column_widths(self) -> Dict[str, int]:
        if self.max_categories is not None:
            return {
                column: self.max_categories
                for column in self.categorical_columns
            }
        return {
            column: len(self._tables[column])
            for column in self.categorical_columns
        }

    def _column_offsets(self, widths: Dict[str, int]) -> Dict[str, int]:
        offsets: Dict[str, int] = {}
        position = 0
        for column in self.categorical_columns:
            offsets[column] = position
            position += widths[column]
        return offsets

    def reset(self) -> None:
        self._tables = {
            column: CategoryTable() for column in self.categorical_columns
        }

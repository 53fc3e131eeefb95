"""Missing-value imputers.

Two variants, matching the two data shapes in the paper pipelines:

* :class:`MissingValueImputer` — dense numeric ``Table`` columns;
  fills ``NaN`` with the running mean (or a constant).
* :class:`SparseMeanImputer` — :class:`SparseRows` batches (URL
  pipeline); fills ``NaN`` entries with the per-index running mean.

Both learn their statistics incrementally during the online pass
(§3.1), so imputation during proactive training needs no extra scan.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.data.table import Table
from repro.exceptions import ValidationError
from repro.pipeline.component import Batch, ComponentKind, PipelineComponent
from repro.pipeline.statistics import (
    FrozenMemo,
    RunningMoments,
    SparseMoments,
)


class MissingValueImputer(PipelineComponent):
    """Fill ``NaN`` in dense numeric columns.

    Parameters
    ----------
    columns:
        Columns to impute.
    strategy:
        ``"mean"`` — per-column running mean (stateful); or
        ``"constant"`` — always ``fill_value`` (stateless statistics-
        wise but kept a stateful component for interface uniformity).
    fill_value:
        Used by the constant strategy and as the fallback for a column
        whose every observation so far was ``NaN``.
    """

    kind = ComponentKind.DATA_TRANSFORMATION

    def __init__(
        self,
        columns: Sequence[str],
        strategy: str = "mean",
        fill_value: float = 0.0,
        name: str | None = None,
    ) -> None:
        super().__init__(name)
        if strategy not in ("mean", "constant"):
            raise ValidationError(
                f"strategy must be 'mean' or 'constant', got {strategy!r}"
            )
        if not columns:
            raise ValidationError("imputer needs at least one column")
        self.columns = list(columns)
        self.strategy = strategy
        self.fill_value = float(fill_value)
        self._moments = RunningMoments(dim=len(self.columns))

    def update(self, batch: Batch) -> None:
        if self.strategy != "mean":
            return
        table = self._require_table(batch)
        stacked = np.column_stack(
            [
                np.asarray(table.column(c), dtype=np.float64)
                for c in self.columns
            ]
        )
        self._moments.update(stacked)

    def transform(self, batch: Batch) -> Batch:
        table = self._require_table(batch)
        fills = self._current_fills()
        result = table
        for column, fill in zip(self.columns, fills):
            values = np.asarray(table.column(column), dtype=np.float64)
            missing = np.isnan(values)
            if missing.any():
                values = np.where(missing, fill, values)
            result = result.with_column(column, values)
        return result

    def _current_fills(self) -> np.ndarray:
        if self.strategy == "constant":
            return np.full(len(self.columns), self.fill_value)
        if self._moments.total_count == 0:
            return np.full(len(self.columns), self.fill_value)
        counts = self._moments.count
        means = self._moments.mean()
        return np.where(counts > 0, means, self.fill_value)

    def reset(self) -> None:
        self._moments = RunningMoments(dim=len(self.columns))


def _missing(data: np.ndarray, indices: np.ndarray):
    """Positions of the NaN entries and their indices, frozen so that
    the statistics keep the indices' slots."""
    missing = np.isnan(data).nonzero()[0]
    where = indices.take(missing)
    where.flags.writeable = False
    return missing, where


class SparseMeanImputer(PipelineComponent):
    """Fill ``NaN`` entries of sparse rows with their index means.

    Batches are :class:`~repro.pipeline.component.SparseRows` (see
    :class:`~repro.pipeline.components.parser.SvmLightParser`). An index
    whose mean is still unknown falls back to ``fill_value``. A frozen
    batch's NaN positions and their slots are kept, so a re-read batch
    costs one copy and one ``take``.
    """

    kind = ComponentKind.DATA_TRANSFORMATION

    def __init__(
        self,
        fill_value: float = 0.0,
        name: str | None = None,
    ) -> None:
        super().__init__(name)
        self.fill_value = float(fill_value)
        self._moments = SparseMoments()
        self.__setstate__({})

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_nans"}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        #: :func:`_missing` of each frozen batch, derived data.
        self._nans = FrozenMemo()

    @property
    def num_indices_seen(self) -> int:
        """Number of distinct feature indices with statistics."""
        return len(self._moments)

    def update(self, batch: Batch) -> None:
        rows = self._require_rows(batch)
        self._moments.update(rows.indices, rows.data)

    def transform(self, batch: Batch) -> Batch:
        rows = self._require_rows(batch)
        missing, where = self._nans.derive(_missing, rows.data, rows.indices)
        if not len(missing):
            return rows
        data = rows.data.copy()
        data[missing] = self._moments.means(where, self.fill_value)
        return rows._replace(data=data)

    def reset(self) -> None:
        self._moments = SparseMoments()

"""Feature scalers with online statistics.

* :class:`StandardScaler` — dense ``Table`` columns, z-scoring with
  running mean/std (Welford); the paper's canonical stateful component.
* :class:`SparseStandardScaler` — :class:`SparseRows` batches;
  scales by per-index std *without centering* (centering would destroy
  sparsity, the property §3.2.1 relies on for O(p) storage).
* :class:`MinMaxScaler` — dense columns, scaling to [0, 1] via running
  extrema.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.data.table import Table
from repro.exceptions import NotFittedError, ValidationError
from repro.pipeline.component import Batch, ComponentKind, PipelineComponent
from repro.pipeline.statistics import (
    RunningMinMax,
    RunningMoments,
    SparseMoments,
)


class _ColumnwiseScaler(PipelineComponent):
    """Shared plumbing for dense column scalers."""

    kind = ComponentKind.DATA_TRANSFORMATION

    def __init__(
        self, columns: Sequence[str], name: str | None = None
    ) -> None:
        super().__init__(name)
        if not columns:
            raise ValidationError("scaler needs at least one column")
        self.columns = list(columns)

    def _stack(self, table: Table) -> np.ndarray:
        return np.column_stack(
            [
                np.asarray(table.column(c), dtype=np.float64)
                for c in self.columns
            ]
        )

    def _write_back(self, table: Table, scaled: np.ndarray) -> Table:
        result = table
        for position, column in enumerate(self.columns):
            result = result.with_column(column, scaled[:, position])
        return result


class StandardScaler(_ColumnwiseScaler):
    """Z-score dense columns using running mean and std.

    ``transform`` before any data has been seen is an identity (the
    statistics are neutral), which lets a freshly deployed pipeline
    serve its very first chunk; statistics sharpen as updates arrive.

    Parameters
    ----------
    columns:
        Numeric columns to scale.
    with_mean, with_std:
        Independently toggle centering and scaling.
    """

    def __init__(
        self,
        columns: Sequence[str],
        with_mean: bool = True,
        with_std: bool = True,
        name: str | None = None,
    ) -> None:
        super().__init__(columns, name)
        if not (with_mean or with_std):
            raise ValidationError(
                "StandardScaler with neither mean nor std is an identity;"
                " remove it instead"
            )
        self.with_mean = with_mean
        self.with_std = with_std
        self._moments = RunningMoments(dim=len(self.columns))

    def update(self, batch: Batch) -> None:
        table = self._require_table(batch)
        self._moments.update(self._stack(table))

    def transform(self, batch: Batch) -> Batch:
        table = self._require_table(batch)
        values = self._stack(table)
        if self._moments.total_count:
            if self.with_mean:
                values = values - self._moments.mean()
            if self.with_std:
                std = self._moments.std()
                values = values / np.where(std > 0, std, 1.0)
        return self._write_back(table, values)

    def mean(self) -> np.ndarray:
        """Current running mean per scaled column."""
        return self._moments.mean()

    def std(self) -> np.ndarray:
        """Current running std per scaled column."""
        return self._moments.std()

    def reset(self) -> None:
        self._moments = RunningMoments(dim=len(self.columns))


class MinMaxScaler(_ColumnwiseScaler):
    """Scale dense columns to [0, 1] using running extrema.

    Values outside the seen range extrapolate beyond [0, 1]; constant
    columns map to 0.
    """

    def __init__(
        self, columns: Sequence[str], name: str | None = None
    ) -> None:
        super().__init__(columns, name)
        self._extrema = RunningMinMax(dim=len(self.columns))

    def update(self, batch: Batch) -> None:
        table = self._require_table(batch)
        self._extrema.update(self._stack(table))

    def transform(self, batch: Batch) -> Batch:
        table = self._require_table(batch)
        values = self._stack(table)
        if self._seen():
            low = self._extrema.minimum()
            span = self._extrema.span()
            safe_span = np.where(span > 0, span, 1.0)
            finite_low = np.where(np.isfinite(low), low, 0.0)
            values = (values - finite_low) / safe_span
        return self._write_back(table, values)

    def _seen(self) -> bool:
        try:
            self._extrema.minimum()
        except NotFittedError:
            return False
        return True

    def reset(self) -> None:
        self._extrema = RunningMinMax(dim=len(self.columns))


class SparseStandardScaler(PipelineComponent):
    """Scale sparse rows by per-index running std (no centering).

    Indices with no statistics yet (or zero variance) pass through
    unscaled — scaling a brand-new feature by a guessed std would add
    noise, and the URL stream grows new indices over time.
    """

    kind = ComponentKind.DATA_TRANSFORMATION

    def __init__(self, name: str | None = None) -> None:
        super().__init__(name)
        self._moments = SparseMoments()

    @property
    def num_indices_seen(self) -> int:
        return len(self._moments)

    def update(self, batch: Batch) -> None:
        rows = self._require_rows(batch)
        self._moments.update(rows.indices, rows.data)

    def transform(self, batch: Batch) -> Batch:
        rows = self._require_rows(batch)
        with np.errstate(all="ignore"):
            scaled = rows.data / self._moments.stds(rows.indices)
        return rows._replace(data=scaled)

    def std(self, index: int) -> float:
        """Running std for one feature index (1.0 when unseen)."""
        return self._moments.std(index, default=1.0)

    def reset(self) -> None:
        self._moments = SparseMoments()

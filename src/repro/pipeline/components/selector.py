"""Feature selection components (Table 1: "feature selection").

:class:`VarianceThreshold` drops numeric columns whose running variance
falls below a threshold — the paper's example of a selection component
("variance thresholding"). Its statistic (per-column variance) is
incrementally computable, so it participates in online statistics
computation.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.data.table import Table
from repro.exceptions import ValidationError
from repro.pipeline.component import Batch, ComponentKind, PipelineComponent
from repro.pipeline.statistics import RunningMoments


class VarianceThreshold(PipelineComponent):
    """Drop columns whose running variance is below ``threshold``.

    Until any data is seen, all candidate columns are kept (an
    untrained selector must not guess). The selection is re-derived
    from the current statistics on every transform, so it adapts as
    the stream evolves — a column that flat-lines later in the stream
    will eventually be dropped.

    Parameters
    ----------
    columns:
        Candidate columns to watch (all must be numeric).
    threshold:
        Variance below which a column is removed. 0 drops only
        perfectly constant columns.
    """

    kind = ComponentKind.FEATURE_SELECTION

    def __init__(
        self,
        columns: Sequence[str],
        threshold: float = 0.0,
        name: str | None = None,
    ) -> None:
        super().__init__(name)
        if not columns:
            raise ValidationError("selector needs at least one column")
        if threshold < 0:
            raise ValidationError(
                f"threshold must be >= 0, got {threshold}"
            )
        self.columns = list(columns)
        self.threshold = float(threshold)
        self._moments = RunningMoments(dim=len(self.columns))

    def update(self, batch: Batch) -> None:
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
        doomed = self.dropped_columns()
        present = [c for c in doomed if c in table]
        return table.without_columns(present) if present else table

    def dropped_columns(self) -> List[str]:
        """Columns the current statistics say should be removed."""
        if self._moments.total_count == 0:
            return []
        variances = self._moments.variance()
        counts = self._moments.count
        return [
            column
            for column, variance, count in zip(
                self.columns, variances, counts
            )
            if count > 0 and variance <= self.threshold
        ]

    def kept_columns(self) -> List[str]:
        """Candidate columns that currently survive selection."""
        doomed = set(self.dropped_columns())
        return [c for c in self.columns if c not in doomed]

    def reset(self) -> None:
        self._moments = RunningMoments(dim=len(self.columns))

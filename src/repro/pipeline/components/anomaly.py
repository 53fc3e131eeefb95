"""Row-filtering components (anomaly detection).

The Taxi pipeline's anomaly detector drops trips longer than 22 hours,
shorter than 10 seconds, or with zero distance. :class:`RangeFilter`
expresses each such rule; :class:`AnomalyFilter` takes an arbitrary
mask predicate for custom rules.

Filters are "data transformation" components in the Table 1 taxonomy:
they operate row-wise and can only shrink the data (O(p) output).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.data.table import Table
from repro.exceptions import PipelineError, ValidationError
from repro.pipeline.component import (
    Batch,
    ComponentKind,
    StatelessComponent,
)

#: Predicate returning a boolean keep-mask for the table's rows.
MaskPredicate = Callable[[Table], np.ndarray]


class AnomalyFilter(StatelessComponent):
    """Keep only the rows where ``predicate(table)`` is true.

    The predicate receives the full table and must return a boolean
    array of length ``table.num_rows`` (true = keep).
    """

    kind = ComponentKind.DATA_TRANSFORMATION

    #: Diagnostics of this instance's own calls, not state: pickles and
    #: fingerprints leave them out, so a copy starts counting at zero.
    rows_seen = 0
    rows_dropped = 0

    def __init__(
        self, predicate: MaskPredicate, name: str | None = None
    ) -> None:
        super().__init__(name)
        self.predicate = predicate

    def __getstate__(self) -> dict:
        counters = ("rows_seen", "rows_dropped")
        return {k: v for k, v in self.__dict__.items() if k not in counters}

    def transform(self, batch: Batch) -> Batch:
        self._require_table(batch)
        mask = np.asarray(self.predicate(batch), dtype=bool)
        if mask.shape != (batch.num_rows,):
            raise PipelineError(
                f"{self.name}: predicate returned shape {mask.shape}, "
                f"expected ({batch.num_rows},)"
            )
        self.rows_seen += batch.num_rows
        self.rows_dropped += int((~mask).sum())
        return batch.filter_rows(mask)


class RangeFilter(AnomalyFilter):
    """Keep rows whose ``column`` value lies in ``[minimum, maximum]``.

    Either bound may be ``None`` (unbounded on that side); NaN values
    never satisfy a bound and are dropped.
    """

    def __init__(
        self,
        column: str,
        minimum: Optional[float] = None,
        maximum: Optional[float] = None,
        name: str | None = None,
    ) -> None:
        if minimum is None and maximum is None:
            raise ValidationError(
                "RangeFilter needs at least one of minimum/maximum"
            )
        if (
            minimum is not None
            and maximum is not None
            and minimum > maximum
        ):
            raise ValidationError(
                f"minimum {minimum} exceeds maximum {maximum}"
            )
        self.column = column
        self.minimum = minimum
        self.maximum = maximum
        super().__init__(self._in_range, name)

    def _in_range(self, table: Table) -> np.ndarray:
        values = np.asarray(table.column(self.column), dtype=np.float64)
        mask = ~np.isnan(values)
        if self.minimum is not None:
            mask &= values >= self.minimum
        if self.maximum is not None:
            mask &= values <= self.maximum
        return mask

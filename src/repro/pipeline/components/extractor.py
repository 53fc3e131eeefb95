"""Feature extraction components (Table 1: "feature extraction").

:class:`ColumnExtractor` is the workhorse: it applies a vectorised
function to one or more input columns and writes the result to a new
column. The Taxi pipeline is assembled almost entirely from these —
trip duration, haversine distance, bearing, hour of day, day of week.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.data.table import Table
from repro.exceptions import PipelineError, ValidationError
from repro.pipeline.component import (
    Batch,
    ComponentKind,
    StatelessComponent,
)

#: Seconds in a day / hour — used by the calendar extractors, which
#: interpret their input as POSIX epoch seconds.
SECONDS_PER_DAY = 86_400
SECONDS_PER_HOUR = 3_600

#: 1970-01-01 was a Thursday; offset so weekday 0 == Monday.
_EPOCH_WEEKDAY = 3


class ColumnExtractor(StatelessComponent):
    """Compute a new column from existing columns.

    Parameters
    ----------
    inputs:
        Names of the input columns, passed to ``function`` as
        positional numpy arrays.
    function:
        Vectorised callable returning a 1-D array the same length as
        its inputs.
    output:
        Name of the produced column (replaces an existing one).
    """

    kind = ComponentKind.FEATURE_EXTRACTION

    def __init__(
        self,
        inputs: Sequence[str],
        function: Callable[..., np.ndarray],
        output: str,
        name: str | None = None,
    ) -> None:
        super().__init__(name)
        if not inputs:
            raise ValidationError("extractor needs at least one input")
        self.inputs = list(inputs)
        self.function = function
        self.output = output

    def transform(self, batch: Batch) -> Batch:
        table = self._require_table(batch)
        arrays = [
            np.asarray(table.column(column)) for column in self.inputs
        ]
        result = np.asarray(self.function(*arrays))
        if result.shape != (table.num_rows,):
            raise PipelineError(
                f"{self.name}: function returned shape {result.shape}, "
                f"expected ({table.num_rows},)"
            )
        return table.with_column(self.output, result)


class ColumnDifference(ColumnExtractor):
    """``output = minuend - subtrahend`` (e.g. trip duration in seconds).

    This is the Taxi "input parser" of the paper: it derives the actual
    trip duration from dropoff and pickup timestamps.
    """

    def __init__(
        self,
        minuend: str,
        subtrahend: str,
        output: str,
        name: str | None = None,
    ) -> None:
        super().__init__(
            inputs=[minuend, subtrahend],
            function=_difference,
            output=output,
            name=name,
        )


class HourOfDayExtractor(ColumnExtractor):
    """Hour of day (0–23) from an epoch-seconds column."""

    def __init__(
        self,
        timestamp_column: str,
        output: str = "hour_of_day",
        name: str | None = None,
    ) -> None:
        super().__init__(
            inputs=[timestamp_column],
            function=_hour_of_day,
            output=output,
            name=name,
        )


class DayOfWeekExtractor(ColumnExtractor):
    """Day of week (0=Monday … 6=Sunday) from epoch seconds."""

    def __init__(
        self,
        timestamp_column: str,
        output: str = "day_of_week",
        name: str | None = None,
    ) -> None:
        super().__init__(
            inputs=[timestamp_column],
            function=_day_of_week,
            output=output,
            name=name,
        )


def _difference(minuend: np.ndarray, subtrahend: np.ndarray) -> np.ndarray:
    """Elementwise difference (module-level: keeps pipelines picklable)."""
    return np.asarray(minuend, dtype=np.float64) - np.asarray(
        subtrahend, dtype=np.float64
    )


def _hour_of_day(epoch_seconds: np.ndarray) -> np.ndarray:
    seconds = np.asarray(epoch_seconds, dtype=np.float64)
    return np.floor(seconds % SECONDS_PER_DAY / SECONDS_PER_HOUR)


def _day_of_week(epoch_seconds: np.ndarray) -> np.ndarray:
    seconds = np.asarray(epoch_seconds, dtype=np.float64)
    days = np.floor(seconds / SECONDS_PER_DAY)
    return (days + _EPOCH_WEEKDAY) % 7

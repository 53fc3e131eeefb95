"""Elementwise column transformers.

Stateless one-to-one mappings (the "normalization"-style data
transformations of Table 1): apply a vectorised function to columns in
place. Common transforms (``log1p``, ``sqrt``, ``abs``, ``clip`` via
partials) ship as named factories so pipelines stay picklable.
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


class ColumnTransformer(StatelessComponent):
    """Apply a vectorised elementwise function to columns in place.

    Parameters
    ----------
    columns:
        Columns rewritten by the transform.
    function:
        Vectorised callable, array in / same-shape array out. Must be
        a module-level function (not a lambda) if the pipeline is to
        be persisted.
    """

    kind = ComponentKind.DATA_TRANSFORMATION

    def __init__(
        self,
        columns: Sequence[str],
        function: Callable[[np.ndarray], np.ndarray],
        name: str | None = None,
    ) -> None:
        super().__init__(name)
        if not columns:
            raise ValidationError(
                "ColumnTransformer needs at least one column"
            )
        self.columns = list(columns)
        self.function = function

    def transform(self, batch: Batch) -> Batch:
        self._require_table(batch)
        result = batch
        for column in self.columns:
            values = np.asarray(batch.column(column), dtype=np.float64)
            transformed = np.asarray(self.function(values))
            if transformed.shape != values.shape:
                raise PipelineError(
                    f"{self.name}: function changed shape "
                    f"{values.shape} -> {transformed.shape}"
                )
            result = result.with_column(column, transformed)
        return result


def log1p_transformer(
    columns: Sequence[str], name: str = "log1p"
) -> ColumnTransformer:
    """``log(1 + x)`` — the Taxi target transform, as a component."""
    return ColumnTransformer(columns, np.log1p, name=name)


def sqrt_transformer(
    columns: Sequence[str], name: str = "sqrt"
) -> ColumnTransformer:
    """Elementwise square root (negatives become NaN, as in numpy)."""
    return ColumnTransformer(columns, np.sqrt, name=name)


def absolute_transformer(
    columns: Sequence[str], name: str = "abs"
) -> ColumnTransformer:
    """Elementwise absolute value."""
    return ColumnTransformer(columns, np.abs, name=name)

"""Polynomial interaction features.

§3.2.1 of the paper describes feature extraction that "creates a new
feature (column) by combining one or more existing features (such as
summing or multiplying features together)" — the O(p) case of its size
analysis. :class:`PolynomialInteractions` is that component: pairwise
products (and optionally squares) of chosen numeric columns, appended
as new columns.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement
from typing import List, Sequence, Tuple

import numpy as np

from repro.exceptions import ValidationError
from repro.pipeline.component import (
    Batch,
    ComponentKind,
    StatelessComponent,
)


class PolynomialInteractions(StatelessComponent):
    """Append pairwise interaction columns for the given columns.

    Parameters
    ----------
    columns:
        Numeric input columns (at least two, unless
        ``include_squares``).
    include_squares:
        Also append each column's square (degree-2 self-interaction).
    separator:
        Joins input names into output names, e.g. ``a*b``.
    """

    kind = ComponentKind.FEATURE_EXTRACTION

    def __init__(
        self,
        columns: Sequence[str],
        include_squares: bool = False,
        separator: str = "*",
        name: str | None = None,
    ) -> None:
        super().__init__(name)
        if not columns:
            raise ValidationError(
                "PolynomialInteractions needs at least one column"
            )
        if len(columns) < 2 and not include_squares:
            raise ValidationError(
                "a single column without include_squares produces no "
                "interactions; add columns or set include_squares"
            )
        if len(set(columns)) != len(columns):
            raise ValidationError("columns must be distinct")
        self.columns = list(columns)
        self.include_squares = include_squares
        self.separator = separator

    def output_pairs(self) -> List[Tuple[str, str]]:
        """The (left, right) column pairs this component produces."""
        if self.include_squares:
            return list(
                combinations_with_replacement(self.columns, 2)
            )
        return list(combinations(self.columns, 2))

    def output_columns(self) -> List[str]:
        """Names of the appended interaction columns."""
        return [
            f"{left}{self.separator}{right}"
            for left, right in self.output_pairs()
        ]

    def transform(self, batch: Batch) -> Batch:
        self._require_table(batch)
        result = batch
        for left, right in self.output_pairs():
            product = np.asarray(
                batch.column(left), dtype=np.float64
            ) * np.asarray(batch.column(right), dtype=np.float64)
            result = result.with_column(
                f"{left}{self.separator}{right}", product
            )
        return result

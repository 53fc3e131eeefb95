"""Input parsers.

The first component of each paper pipeline turns raw records into typed
columns. :class:`SvmLightParser` handles the URL dataset's svmlight-like
text lines (``label index:value index:value ...``); sparse rows come out
as ``{index: value}`` dictionaries in an object column, which the sparse
imputer/scaler/hasher downstream understand.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.exceptions import PipelineError
from repro.pipeline.component import (
    Batch,
    ComponentKind,
    StatelessComponent,
)


class SvmLightParser(StatelessComponent):
    """Parse svmlight-format text lines into label + sparse features.

    Each line reads ``<label> <index>:<value> <index>:<value> ...``.
    Labels are parsed as floats (the URL task uses ±1); values may be
    ``nan`` for missing measurements (the imputer's job). Malformed
    lines raise :class:`~repro.exceptions.PipelineError` with the line
    content, because silently dropping training data would bias the
    model.

    Parameters
    ----------
    line_column:
        Input column holding the raw strings.
    label_column, features_column:
        Output column names.
    """

    kind = ComponentKind.DATA_TRANSFORMATION

    def __init__(
        self,
        line_column: str = "line",
        label_column: str = "label",
        features_column: str = "features",
        name: str | None = None,
    ) -> None:
        super().__init__(name)
        self.line_column = line_column
        self.label_column = label_column
        self.features_column = features_column

    def transform(self, batch: Batch) -> Batch:
        self._require_table(batch)
        lines = batch.column(self.line_column)
        labels = np.empty(len(lines), dtype=np.float64)
        features = np.empty(len(lines), dtype=object)
        for position, line in enumerate(lines):
            labels[position], features[position] = self._parse_line(
                str(line)
            )
        return (
            batch.without_columns([self.line_column])
            .with_column(self.label_column, labels)
            .with_column(self.features_column, features)
        )

    def _parse_line(self, line: str) -> tuple[float, Dict[int, float]]:
        parts = line.split()
        if not parts:
            raise PipelineError(f"{self.name}: empty input line")
        try:
            label = float(parts[0])
        except ValueError:
            raise PipelineError(
                f"{self.name}: bad label in line {line!r}"
            ) from None
        row: Dict[int, float] = {}
        for token in parts[1:]:
            index_text, separator, value_text = token.partition(":")
            if not separator:
                raise PipelineError(
                    f"{self.name}: bad token {token!r} in line {line!r}"
                )
            try:
                row[int(index_text)] = float(value_text)
            except ValueError:
                raise PipelineError(
                    f"{self.name}: bad token {token!r} in line {line!r}"
                ) from None
        return label, row

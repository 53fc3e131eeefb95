"""Input parsers.

The first component of each paper pipeline turns raw records into typed
data. :class:`SvmLightParser` handles the URL dataset's svmlight-like
text lines (``label index:value index:value ...``); a chunk of lines
comes out as one :class:`~repro.pipeline.component.SparseRows` CSR
batch, which the sparse imputer/scaler/hasher downstream understand.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import PipelineError
from repro.pipeline.component import (
    Batch,
    ComponentKind,
    SparseRows,
    StatelessComponent,
)


class SvmLightParser(StatelessComponent):
    """Parse svmlight-format text lines into labels + sparse rows.

    Each line reads ``<label> <index>:<value> <index>:<value> ...``.
    Labels are parsed as floats (the URL task uses ±1); values may be
    ``nan`` for missing measurements (the imputer's job). Malformed
    lines — a token that is not ``int:float``, an index listed twice,
    an index outside ``int64`` — raise
    :class:`~repro.exceptions.PipelineError` with the line content,
    because silently dropping training data would bias the model.

    Parameters
    ----------
    line_column:
        Input column holding the raw strings.
    """

    kind = ComponentKind.DATA_TRANSFORMATION

    def __init__(
        self,
        line_column: str = "line",
        name: str | None = None,
    ) -> None:
        super().__init__(name)
        self.line_column = line_column

    def transform(self, batch: Batch) -> SparseRows:
        lines = self._require_table(batch).column(self.line_column)
        try:
            return self._parse(lines)
        except (ValueError, OverflowError):
            # Rare path: find the first offending line and say why.
            for line in lines:
                self._reject(str(line))
            raise

    @staticmethod
    def _parse(lines) -> SparseRows:
        """All lines at once; ``ValueError``/``OverflowError`` if any
        line is malformed (:meth:`_reject` names it)."""
        indptr = np.zeros(len(lines) + 1, dtype=np.int64)
        heads, tokens = [], []
        for position, line in enumerate(lines):
            head, *entries = str(line).split()
            heads.append(head)
            tokens += entries
            indptr[position + 1] = len(tokens)
        labels = np.fromiter(map(float, heads), np.float64, len(heads))
        # With the colons set apart, n well-formed tokens read
        # ``index : value`` n times over, and nothing else does: two
        # adjacent non-colon fields can only meet at a token boundary.
        # (No per-token tuple is built — 750 tracked objects a chunk
        # would wake the cyclic collector on every parse.)
        total = len(tokens)
        fields = " ".join(tokens).replace(":", " : ").split()
        if len(fields) != 3 * total or fields[1::3].count(":") != total:
            raise ValueError("token that is not index:value")
        indices = np.fromiter(map(int, fields[0::3]), np.int64, total)
        data = np.fromiter(map(float, fields[2::3]), np.float64, total)
        # Sorted stably by index, a row's repeated index is adjacent.
        order = indices.argsort(kind="stable")
        owner = np.repeat(np.arange(len(heads)), np.diff(indptr)).take(order)
        ordered = indices.take(order)
        if ((ordered[1:] == ordered[:-1]) & (owner[1:] == owner[:-1])).any():
            raise ValueError("index listed twice")
        # Frozen, the arrays can key derived work by identity (the
        # hasher's plan, slots, NaN entries) while the batch lives.
        for array in (indptr, indices, data):
            array.flags.writeable = False
        return SparseRows(labels, indptr, indices, data)

    def _reject(self, line: str) -> None:
        """Raise the :class:`PipelineError` for ``line`` if it has one."""
        parts = line.split()
        if not parts:
            raise PipelineError(f"{self.name}: empty input line")
        try:
            float(parts[0])
        except ValueError:
            raise PipelineError(
                f"{self.name}: bad label in line {line!r}"
            ) from None
        seen = set()
        for token in parts[1:]:
            index_text, separator, value_text = token.partition(":")
            try:
                if not separator:
                    raise ValueError(token)
                index = int(index_text)
                float(value_text)
            except ValueError:
                raise PipelineError(
                    f"{self.name}: bad token {token!r} in line {line!r}"
                ) from None
            if not -(2**63) <= index < 2**63:
                raise PipelineError(
                    f"{self.name}: index {index} does not fit int64 "
                    f"in line {line!r}"
                )
            if index in seen:
                raise PipelineError(
                    f"{self.name}: index {index} is listed twice "
                    f"in line {line!r}"
                )
            seen.add(index)

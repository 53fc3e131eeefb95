"""A minimal column-oriented table.

Raw training data flows through the pipeline as a :class:`Table`: an
ordered mapping of column name to a 1-D :class:`numpy.ndarray`, all of
equal length. Components append, drop, and rewrite columns; row filters
(the anomaly detector) select subsets of rows across every column at
once.

A ``Table`` is deliberately much smaller than pandas: only the
operations the pipeline framework needs, implemented directly on numpy,
with strict schema checking (:class:`repro.exceptions.SchemaError`).
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, Iterator, List, Mapping, Sequence

import numpy as np

from repro.exceptions import SchemaError


def is_frozen(array: np.ndarray) -> bool:
    """True when ``array``'s content cannot change: it is read-only and
    so is every ndarray down its ``.base`` chain (a read-only view of a
    writable array changes when the array is written). A base that is
    not an ndarray — an unpickled buffer — counts as owned."""
    while not array.flags.writeable:
        array = array.base
        if not isinstance(array, np.ndarray):
            return True
    return False


class Table:
    """An immutable-schema, column-oriented batch of rows.

    Parameters
    ----------
    columns:
        Mapping of column name to 1-D array-like. All columns must have
        the same length. Arrays are converted with ``np.asarray`` and
        never copied when already ndarrays, so callers must not mutate
        the inputs afterwards.
    """

    __slots__ = ("_columns", "_num_rows", "_cached_num_values")

    def __init__(self, columns: Mapping[str, Sequence] | None = None) -> None:
        self._columns: Dict[str, np.ndarray] = {}
        self._num_rows = 0
        self._cached_num_values: int | None = None
        first = True
        for name, values in (columns or {}).items():
            array = np.asarray(values)
            if array.ndim != 1:
                raise SchemaError(
                    f"column {name!r} must be 1-D, got shape {array.shape}"
                )
            if first:
                self._num_rows = len(array)
                first = False
            elif len(array) != self._num_rows:
                raise SchemaError(
                    f"column {name!r} has {len(array)} rows, "
                    f"expected {self._num_rows}"
                )
            self._columns[str(name)] = array

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        """Number of rows (length of every column)."""
        return self._num_rows

    @property
    def num_columns(self) -> int:
        """Number of columns."""
        return len(self._columns)

    @property
    def column_names(self) -> List[str]:
        """Column names in insertion order."""
        return list(self._columns)

    @property
    def num_values(self) -> int:
        """Total number of scalar values stored in the table.

        This is the quantity *p* in the paper's §3.2.1 size analysis
        and the unit the cost model charges per scan. Numeric cells
        count 1 each; an object cell holding a raw text record counts
        its whitespace-separated tokens. The count is computed lazily
        and cached (tables are immutable).
        """
        if self._cached_num_values is None:
            total = 0
            for array in self._columns.values():
                if array.dtype == object and len(array):
                    total += _object_column_values(array)
                else:
                    total += len(array)
            self._cached_num_values = total
        return self._cached_num_values

    def __len__(self) -> int:
        return self._num_rows

    def __contains__(self, name: object) -> bool:
        return name in self._columns

    def __iter__(self) -> Iterator[str]:
        return iter(self._columns)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        if self.column_names != other.column_names:
            return False
        return all(
            np.array_equal(self._columns[c], other._columns[c])
            for c in self._columns
        )

    def __repr__(self) -> str:
        cols = ", ".join(self._columns)
        return f"Table({self._num_rows} rows: [{cols}])"

    # ------------------------------------------------------------------
    # Column access
    # ------------------------------------------------------------------
    def column(self, name: str) -> np.ndarray:
        """Return the array for column ``name``.

        Raises :class:`SchemaError` when the column does not exist; the
        message lists the available columns to ease debugging pipeline
        wiring mistakes.
        """
        try:
            return self._columns[name]
        except KeyError:
            raise SchemaError(
                f"no column {name!r}; available: {self.column_names}"
            ) from None

    def __getitem__(self, name: str) -> np.ndarray:
        return self.column(name)

    def freeze(self) -> None:
        """Make every column read-only (``column()`` hands out the
        arrays themselves). A stored table is frozen, so its identity
        can stand for its content for as long as it is stored."""
        for array in self._columns.values():
            array.setflags(write=False)

    @property
    def frozen(self) -> bool:
        """True when no column's content can change (:func:`is_frozen`)."""
        return all(is_frozen(array) for array in self._columns.values())

    def __getstate__(self):
        """The slots as pickle would take them, read-only columns as
        writable copies: pickle writes a read-only array differently,
        and a checkpoint's bytes must not depend on whether the table
        it spills was frozen (an unpickled table is writable)."""
        columns = {
            name: array if array.flags.writeable else array.copy()
            for name, array in self._columns.items()
        }
        return None, {
            "_columns": columns,
            "_num_rows": self._num_rows,
            "_cached_num_values": self._cached_num_values,
        }

    # ------------------------------------------------------------------
    # Functional updates (every method returns a new Table)
    # ------------------------------------------------------------------
    def with_column(self, name: str, values: Sequence) -> "Table":
        """Return a new table with column ``name`` added or replaced."""
        array = np.asarray(values)
        if self._columns and len(array) != self._num_rows:
            raise SchemaError(
                f"column {name!r} has {len(array)} rows, "
                f"expected {self._num_rows}"
            )
        columns = dict(self._columns)
        columns[str(name)] = array
        return Table(columns)

    def with_columns(self, new: Mapping[str, Sequence]) -> "Table":
        """Return a new table with all columns in ``new`` added/replaced."""
        table = self
        for name, values in new.items():
            table = table.with_column(name, values)
        return table

    def without_columns(self, names: Iterable[str]) -> "Table":
        """Return a new table lacking every column in ``names``.

        Missing names raise :class:`SchemaError` so that a feature
        selector silently dropping the wrong column cannot go unnoticed.
        """
        drop = set(names)
        unknown = drop - set(self._columns)
        if unknown:
            raise SchemaError(f"cannot drop unknown columns {sorted(unknown)}")
        return Table(
            {n: v for n, v in self._columns.items() if n not in drop}
        )

    def select(self, names: Sequence[str]) -> "Table":
        """Return a new table containing exactly ``names`` in order."""
        return Table({name: self.column(name) for name in names})

    def filter_rows(self, mask: Sequence[bool]) -> "Table":
        """Return a new table with only the rows where ``mask`` is true."""
        mask_array = np.asarray(mask, dtype=bool)
        if len(mask_array) != self._num_rows:
            raise SchemaError(
                f"mask has {len(mask_array)} entries, "
                f"expected {self._num_rows}"
            )
        return Table({n: v[mask_array] for n, v in self._columns.items()})

    def take(self, indices: Sequence[int]) -> "Table":
        """Return a new table with the rows at ``indices`` (in order)."""
        idx = np.asarray(indices, dtype=np.intp)
        return Table({n: v[idx] for n, v in self._columns.items()})

    def head(self, count: int) -> "Table":
        """Return the first ``count`` rows."""
        return Table({n: v[:count] for n, v in self._columns.items()})

    # ------------------------------------------------------------------
    # Combination / conversion
    # ------------------------------------------------------------------
    @staticmethod
    def concat(tables: Sequence["Table"]) -> "Table":
        """Vertically concatenate tables with identical schemas."""
        tables = [t for t in tables if t.num_rows or t.num_columns]
        if not tables:
            return Table()
        if len(tables) == 1:
            return tables[0]
        names = tables[0].column_names
        for table in tables[1:]:
            if table.column_names != names:
                raise SchemaError(
                    f"schema mismatch in concat: {table.column_names} "
                    f"vs {names}"
                )
        return Table(
            {n: np.concatenate([t.column(n) for t in tables]) for n in names}
        )

    def to_matrix(self, names: Sequence[str] | None = None) -> np.ndarray:
        """Stack the given (default: all) columns into a 2-D float array."""
        names = list(names) if names is not None else self.column_names
        if not names:
            return np.empty((self._num_rows, 0), dtype=np.float64)
        return np.column_stack(
            [np.asarray(self.column(n), dtype=np.float64) for n in names]
        )

    def to_dict(self) -> Dict[str, np.ndarray]:
        """Return a shallow copy of the column mapping."""
        return dict(self._columns)

    def nbytes(self) -> int:
        """Approximate memory footprint of the column payloads."""
        return int(sum(v.nbytes for v in self._columns.values()))

    def digest(self) -> str:
        """SHA-256 content digest of the table.

        Covers column names (in order), dtypes, and cell contents, so
        two tables with identical data always hash identically — the
        chunk-node identity the provenance ledger records. Numeric
        columns hash their raw bytes; object columns (raw text
        records) hash a canonical per-cell rendering.
        """
        body = hashlib.sha256()
        for name, array in self._columns.items():
            body.update(name.encode("utf-8"))
            body.update(b"\x00")
            if array.dtype == object:
                for cell in array:
                    body.update(_object_cell_bytes(cell))
                    body.update(b"\x1e")
            else:
                body.update(array.dtype.str.encode("ascii"))
                body.update(np.ascontiguousarray(array).tobytes())
            body.update(b"\x00")
        return body.hexdigest()


def _object_cell_bytes(cell: object) -> bytes:
    """Canonical byte rendering of one object-column cell."""
    if isinstance(cell, str):
        return cell.encode("utf-8")
    return repr(cell).encode("utf-8")


def _object_column_values(array: np.ndarray) -> int:
    """Scalar-value count of an object column (see ``num_values``)."""
    if isinstance(array[0], str):
        return int(sum(cell.count(" ") + 1 for cell in array))
    return len(array)

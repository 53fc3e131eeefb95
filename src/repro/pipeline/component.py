"""Pipeline component contract.

Every component implements the two methods the paper requires (§4.3):

* ``update(data)`` — fold the batch into the component's internal
  statistics (online statistics computation, §3.1). Stateless
  components inherit a no-op.
* ``transform(data)`` — apply the (current) statistics to the batch and
  return the transformed batch, without changing any state.

The training path calls ``update`` then ``transform``; the serving path
and dynamic re-materialization call ``transform`` only. Keeping both on
one object is what guarantees train/serve consistency.

Data flows between components as :class:`~repro.data.table.Table`
objects — or, for sparse rows, as one :class:`SparseRows` CSR batch —
until a terminal component (hasher / assembler) emits a
:class:`Features` pair ready for the model.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from typing import NamedTuple, Union

import numpy as np
import scipy.sparse as sp

from repro.data.table import Table
from repro.exceptions import PipelineError, ValidationError
from repro.ml.batch import matrix_values, stack_matrices


class Features(NamedTuple):
    """Model-ready output of a pipeline: matrix + aligned labels.

    ``matrix`` is dense (``ndarray``) or sparse (``csr_matrix``);
    ``labels`` is a 1-D float array. This is the payload stored inside a
    :class:`~repro.data.chunk.FeatureChunk`.
    """

    matrix: Union[np.ndarray, sp.csr_matrix]
    labels: np.ndarray

    @property
    def num_rows(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def num_features(self) -> int:
        return int(self.matrix.shape[1])

    def num_values(self) -> int:
        """Stored value count — nnz for sparse, rows*cols for dense.

        This is the unit the cost model charges and the quantity whose
        growth §3.2.1 analyses (sparse one-hot/hashing output stays
        O(p) thanks to the sparse representation).
        """
        return matrix_values(self.matrix) + len(self.labels)


class SparseRows(NamedTuple):
    """Labelled sparse rows over the raw, unbounded feature-index space.

    The one sparse row representation between the parser and the
    hasher: row ``r`` holds ``indices[indptr[r]:indptr[r + 1]]`` (raw
    ``int64`` feature indices, each at most once per row, in the order
    the record listed them) with the matching ``data`` values, ``NaN``
    where a measurement is missing.
    """

    labels: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @property
    def num_rows(self) -> int:
        return len(self.labels)

    def num_values(self) -> int:
        """Stored entries plus labels (the unit the cost model charges)."""
        return len(self.data) + len(self.labels)


#: Batches a component may receive or emit.
Batch = Union[Table, SparseRows, Features]


def union_features(parts) -> Features:
    """Vertically stack Features batches (the paper's union step).

    All parts must share a representation: mixing sparse and dense
    matrices raises, because silently densifying a hashed feature
    space would blow the O(p) storage bound of §3.2.1.
    """
    parts = list(parts)
    if not parts:
        raise ValidationError("cannot union zero Features batches")
    return Features(
        matrix=stack_matrices([p.matrix for p in parts]),
        labels=np.concatenate([np.asarray(p.labels) for p in parts]),
    )


class ComponentKind(enum.Enum):
    """Component taxonomy from Table 1 of the paper.

    The *unit of work* determines the size complexity of the component's
    output (§3.2.1): row-wise transformations and column selections are
    O(p); extraction can expand columns but stays O(p) under a sparse
    representation.
    """

    DATA_TRANSFORMATION = "data transformation"  # row-wise filter / map
    FEATURE_SELECTION = "feature selection"      # keeps a column subset
    FEATURE_EXTRACTION = "feature extraction"    # generates new columns


class PipelineComponent(ABC):
    """Base class for all pipeline components.

    Subclasses set :attr:`kind` and implement :meth:`update` /
    :meth:`transform`. Components carrying statistics should also
    override :meth:`reset` and report ``is_stateful = True`` so the
    platform knows their statistics participate in online computation.
    """

    #: Taxonomy bucket (Table 1).
    kind: ComponentKind = ComponentKind.DATA_TRANSFORMATION

    #: Whether the component keeps statistics that ``update`` maintains.
    is_stateful: bool = True

    def __init__(self, name: str | None = None) -> None:
        self.name = name if name is not None else type(self).__name__

    @abstractmethod
    def update(self, batch: Batch) -> None:
        """Fold ``batch`` into the component's statistics."""

    @abstractmethod
    def transform(self, batch: Batch) -> Batch:
        """Return the transformed batch; must not mutate state."""

    def update_transform(self, batch: Batch) -> Batch:
        """Online-pass convenience: update statistics, then transform."""
        self.update(batch)
        return self.transform(batch)

    def reset(self) -> None:
        """Discard learned statistics (default: nothing to discard)."""

    def _require_table(self, batch: Batch) -> Table:
        """``batch`` itself, once checked to be a :class:`Table`."""
        return self._require(batch, Table)

    def _require_rows(self, batch: Batch) -> SparseRows:
        """``batch`` itself, once checked to be :class:`SparseRows`."""
        return self._require(batch, SparseRows)

    def _require(self, batch: Batch, kind: type):
        if not isinstance(batch, kind):
            raise PipelineError(
                f"{self.name} expects a {kind.__name__}, "
                f"got {type(batch).__name__}"
            )
        return batch

    @staticmethod
    def batch_num_values(batch: Batch) -> int:
        """Value count of a batch, for cost accounting."""
        if isinstance(batch, Table):
            return batch.num_values
        return batch.num_values()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class StatelessComponent(PipelineComponent):
    """Convenience base for components without statistics.

    ``update`` is a no-op and ``is_stateful`` is false; the platform
    can skip statistics handling entirely for these (§3.1: "support for
    stateless pipeline components is trivial").
    """

    is_stateful = False

    def update(self, batch: Batch) -> None:
        """Stateless components have nothing to update."""

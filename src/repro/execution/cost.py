"""Deterministic deployment-cost accounting.

The paper measures deployment cost as the total time spent in data
preprocessing, model training, and prediction (§5.1). On the authors'
Spark cluster this is wall-clock time; here a :class:`CostModel`
assigns fixed cost units to every unit of work, so experiment results
are machine-independent and deterministic:

* per value parsed/transformed by a pipeline component,
* per value scanned for statistics recomputation,
* per value used in a gradient computation,
* per value scored at prediction time,
* per value read from (simulated) disk, plus a per-chunk seek —
  this is what makes re-materialization and the NoOptimization
  configuration expensive, exactly as in §5.4.

A :class:`CostTracker` accumulates charges by category and label. The
default constants are calibrated so the headline ratios of the paper
(periodical ≈ 6–15× continuous; NoOptimization ≈ 2–3× optimized) arise
from the same mechanisms the paper describes.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable

from repro.exceptions import ValidationError
from repro.utils.validation import check_non_negative


@dataclass(frozen=True)
class CostModel:
    """Cost-unit prices for each kind of work.

    Unit: abstract "cost seconds". Relative magnitudes are what matter;
    defaults make one value-touch of transform work the numeraire.
    """

    transform_cost_per_value: float = 1e-6
    statistics_cost_per_value: float = 1e-6
    training_cost_per_value: float = 1.5e-7
    prediction_cost_per_value: float = 5e-7
    disk_read_cost_per_value: float = 2e-6
    disk_seek_cost_per_chunk: float = 1e-3

    def __post_init__(self) -> None:
        for name in (
            "transform_cost_per_value",
            "statistics_cost_per_value",
            "training_cost_per_value",
            "prediction_cost_per_value",
            "disk_read_cost_per_value",
            "disk_seek_cost_per_chunk",
        ):
            check_non_negative(getattr(self, name), name)


@dataclass
class CostBreakdown:
    """Immutable snapshot of a tracker's totals."""

    by_category: Dict[str, float] = field(default_factory=dict)
    by_label: Dict[str, float] = field(default_factory=dict)

    @property
    def total(self) -> float:
        return sum(self.by_category.values())


class CostTracker:
    """Accumulates deployment cost charges.

    Categories follow the paper's cost decomposition:
    ``preprocessing`` (pipeline transforms), ``statistics``
    (statistics scans), ``training`` (gradient work), ``prediction``
    (query answering), and ``disk_io`` (chunk reads for
    re-materialization or raw access).
    """

    CATEGORIES = (
        "preprocessing",
        "statistics",
        "training",
        "prediction",
        "disk_io",
    )

    def __init__(self, model: CostModel | None = None) -> None:
        self.model = model if model is not None else CostModel()
        self._by_category: Dict[str, float] = defaultdict(float)
        self._by_label: Dict[str, float] = defaultdict(float)

    # ------------------------------------------------------------------
    # Charging
    # ------------------------------------------------------------------
    def charge_transform(self, values: int, label: str) -> None:
        """Pipeline transform scan over ``values`` cell values."""
        self._charge(
            "preprocessing",
            label,
            values * self.model.transform_cost_per_value,
        )

    def charge_statistics(self, values: int, label: str) -> None:
        """Statistics (re)computation scan over ``values`` values."""
        self._charge(
            "statistics",
            label,
            values * self.model.statistics_cost_per_value,
        )

    def charge_training(self, values: int, label: str) -> None:
        """Gradient computation over a mini-batch of ``values`` values."""
        self._charge(
            "training",
            label,
            values * self.model.training_cost_per_value,
        )

    def charge_training_steps(
        self, values: Iterable[int], label: str
    ) -> None:
        """:meth:`charge_training` once per entry of ``values``, in
        order — never their sum, which would move the virtual clock's
        low bits. Each amount is ``>= 0``: a count times a price
        :class:`CostModel` checked."""
        price = self.model.training_cost_per_value
        by_category, by_label = self._by_category, self._by_label
        for count in values:
            amount = count * price
            by_category["training"] += amount
            by_label[label] += amount

    def charge_prediction(self, values: int, label: str) -> None:
        """Model scoring over ``values`` values."""
        self._charge(
            "prediction",
            label,
            values * self.model.prediction_cost_per_value,
        )

    def charge_disk_read(
        self, values: int, chunks: int, label: str
    ) -> None:
        """Simulated disk read: per-value transfer plus per-chunk seek."""
        amount = (
            values * self.model.disk_read_cost_per_value
            + chunks * self.model.disk_seek_cost_per_chunk
        )
        self._charge("disk_io", label, amount)

    def _charge(self, category: str, label: str, amount: float) -> None:
        if amount < 0:
            raise ValidationError(f"negative charge: {amount}")
        self._by_category[category] += amount
        self._by_label[label] += amount

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def total(self) -> float:
        """Total cost units accumulated so far (the virtual clock)."""
        return sum(self._by_category.values())

    def category(self, name: str) -> float:
        """Total for one category (0 when never charged)."""
        return self._by_category.get(name, 0.0)

    def breakdown(self) -> CostBreakdown:
        """Snapshot of both decompositions."""
        return CostBreakdown(
            by_category=dict(self._by_category),
            by_label=dict(self._by_label),
        )

    def reset(self) -> None:
        self._by_category.clear()
        self._by_label.clear()

    def state_dict(self) -> Dict[str, Dict[str, float]]:
        """Accumulated totals, restorable via :meth:`load_state_dict`.

        The tracker's totals *are* the deployment's virtual clock, so
        checkpoint/recovery must restore them exactly for resumed cost
        curves to be byte-identical.
        """
        return {
            "by_category": dict(self._by_category),
            "by_label": dict(self._by_label),
        }

    def load_state_dict(
        self, state: Dict[str, Dict[str, float]]
    ) -> None:
        """Restore totals captured by :meth:`state_dict`."""
        self._by_category = defaultdict(float, state["by_category"])
        self._by_label = defaultdict(float, state["by_label"])

    def __repr__(self) -> str:
        return f"CostTracker(total={self.total():.4f})"

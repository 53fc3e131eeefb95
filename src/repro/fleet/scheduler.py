"""The deterministic fleet scheduler: shared budgets, every epoch.

Each scheduling epoch the fleet has ``train_slots`` proactive-training
slots and ``materialize_bytes`` of materialization budget to divide
across tenants. Two policies:

* ``fair_share`` — stride scheduling over priorities
  ``weight x (1 + urgency)`` (urgency from the Modyn-style data
  triggers): every slot goes to the tenant with the smallest virtual
  pass value, whose pass then advances by ``1/priority``. This is the
  "highest imbalance first" move loop — the tenant furthest behind its
  weighted share is always served next — and a Ganeti-style
  :class:`~repro.fleet.stats.StdDevStatistics` accumulator re-scores
  the fleet's share spread in O(1) after every grant. A starvation
  guard then rescues any eligible tenant unallocated for
  ``starvation_epochs`` epochs by stealing a slot from the largest
  allocation. Materialization bytes split by weight via the largest
  remainder method (exact integer total).

* ``round_robin`` — the naive baseline: slots rotate cyclically over
  training-eligible tenants and bytes split evenly, both blind to
  weights, urgency, and drift (but not to a tenant's strategy
  opt-out, which binds every policy).

Determinism contract: allocation is a pure function of the signal
history (ties always break toward the lowest tenant index), so the
same spec + signals replay byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ValidationError
from repro.fleet.spec import FleetSpec
from repro.fleet.stats import StdDevStatistics, largest_remainder
from repro.fleet.triggers import TenantSignals, TriggerPolicy


@dataclass(frozen=True)
class EpochAllocation:
    """One epoch's division of the shared budgets."""

    epoch: int
    #: Proactive-training slots per tenant; sums to the epoch budget.
    train_slots: Tuple[int, ...]
    #: Materialization byte quota per tenant; sums to the global cap.
    materialize_bytes: Tuple[int, ...]
    #: Tenant indices in training-execution order.
    order: Tuple[int, ...]
    #: The priorities the slots were granted under.
    priorities: Tuple[float, ...]
    #: Std-dev of cumulative weighted shares after this epoch.
    balance: float
    #: Tenants rescued by the starvation guard this epoch.
    rescued: Tuple[int, ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "epoch": self.epoch,
            "train_slots": list(self.train_slots),
            "materialize_bytes": list(self.materialize_bytes),
            "order": list(self.order),
            "priorities": list(self.priorities),
            "balance": self.balance,
            "rescued": list(self.rescued),
        }


class FleetScheduler:
    """Allocates per-epoch budgets across the fleet's tenants."""

    def __init__(
        self,
        spec: FleetSpec,
        triggers: Optional[TriggerPolicy] = None,
    ) -> None:
        self.spec = spec
        self.triggers = (
            triggers if triggers is not None else TriggerPolicy()
        )
        count = spec.num_tenants
        # Derived from the immutable spec and never mutated after
        # construction; recovery rebuilds it here before
        # load_state_dict runs, so it needs no checkpoint slot.
        self._weights = [float(t.weight) for t in spec.tenants]
        #: Stride-scheduling virtual pass value per tenant.
        self._passes = [0.0] * count
        #: Cumulative slots granted per tenant.
        self._granted = [0] * count
        self._rr_cursor = 0
        self._epoch = 0
        self._rescues = 0
        #: Incremental spread of cumulative weighted shares.
        self._shares = StdDevStatistics([0.0] * count)

    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def rescues(self) -> int:
        return self._rescues

    def granted(self) -> List[int]:
        """Cumulative training slots granted per tenant."""
        return list(self._granted)

    def balance_score(self) -> float:
        """Current std-dev of cumulative ``granted/weight`` shares."""
        return self._shares.value()

    # ------------------------------------------------------------------
    def allocate(
        self, signals: Sequence[TenantSignals]
    ) -> EpochAllocation:
        """Divide this epoch's budgets; advances the scheduler state."""
        spec = self.spec
        if len(signals) != spec.num_tenants:
            raise ValidationError(
                f"expected {spec.num_tenants} tenant signals, "
                f"got {len(signals)}"
            )
        for index, sig in enumerate(signals):
            if sig.tenant != index:
                raise ValidationError(
                    f"signals[{index}] reports tenant {sig.tenant}; "
                    f"signals must arrive in tenant order"
                )
        if not any(sig.active for sig in signals):
            raise ValidationError(
                "cannot allocate an epoch with no active tenants"
            )
        if spec.policy == "round_robin":
            slots, order, priorities = self._round_robin(signals)
        else:
            slots, order, priorities = self._fair_share(signals)
        rescued = self._rescue_starving(signals, slots, priorities)
        if rescued:
            order = self._expand_order(slots)
        quotas = self._byte_quotas(signals)
        allocation = EpochAllocation(
            epoch=self._epoch,
            train_slots=tuple(slots),
            materialize_bytes=tuple(quotas),
            order=tuple(order),
            priorities=tuple(priorities),
            balance=self.balance_score(),
            rescued=tuple(rescued),
        )
        self._epoch += 1
        return allocation

    # ------------------------------------------------------------------
    def _priorities(
        self, signals: Sequence[TenantSignals]
    ) -> List[float]:
        """Fair-share priorities with a deterministic fallback chain.

        ``weight x (1 + urgency)`` for training-eligible tenants; when
        every tenant opted out, fall back to plain active weights so
        the epoch budget is still fully assigned (the invariant tests
        rely on allocations summing exactly to the budget).
        """
        priorities = [
            sig.weight * (1.0 + self.triggers.urgency(sig))
            if sig.wants_training
            else 0.0
            for sig in signals
        ]
        if not any(p > 0 for p in priorities):
            priorities = [
                sig.weight if sig.active else 0.0 for sig in signals
            ]
        return priorities

    def _fair_share(
        self, signals: Sequence[TenantSignals]
    ) -> Tuple[List[int], List[int], List[float]]:
        priorities = self._priorities(signals)
        slots = [0] * len(priorities)
        order: List[int] = []
        for _ in range(self.spec.train_slots):
            winner = min(
                (i for i, p in enumerate(priorities) if p > 0),
                key=lambda i: (self._passes[i], i),
            )
            slots[winner] += 1
            order.append(winner)
            self._passes[winner] += 1.0 / priorities[winner]
            self._grant(winner)
        return slots, order, priorities

    def _round_robin(
        self, signals: Sequence[TenantSignals]
    ) -> Tuple[List[int], List[int], List[float]]:
        """Cyclic rotation over training-eligible tenants.

        A tenant's strategy opt-out (``online``) binds every policy —
        round robin is blind to weights and urgency, not to consent.
        Falls back to all active tenants when nobody is eligible so
        the budget still sums exactly.
        """
        eligible = [
            i for i, sig in enumerate(signals) if sig.wants_training
        ]
        if not eligible:
            eligible = [
                i for i, sig in enumerate(signals) if sig.active
            ]
        priorities = [
            1.0 if i in set(eligible) else 0.0
            for i in range(len(signals))
        ]
        slots = [0] * len(signals)
        order: List[int] = []
        for step in range(self.spec.train_slots):
            winner = eligible[
                (self._rr_cursor + step) % len(eligible)
            ]
            slots[winner] += 1
            order.append(winner)
            self._grant(winner)
        self._rr_cursor = (
            self._rr_cursor + self.spec.train_slots
        ) % len(eligible)
        return slots, order, priorities

    def _grant(self, tenant: int) -> None:
        """Cumulative accounting + O(1) balance re-score for one slot."""
        old = self._granted[tenant] / self._weights[tenant]
        self._granted[tenant] += 1
        self._shares.update(
            old, self._granted[tenant] / self._weights[tenant]
        )

    def _ungrant(self, tenant: int) -> None:
        old = self._granted[tenant] / self._weights[tenant]
        self._granted[tenant] -= 1
        self._shares.update(
            old, self._granted[tenant] / self._weights[tenant]
        )

    def _rescue_starving(
        self,
        signals: Sequence[TenantSignals],
        slots: List[int],
        priorities: Sequence[float],
    ) -> List[int]:
        """Steal a slot from the largest allocation for each starving
        tenant (training-eligible, zero slots, stale past the limit).

        Donors are taken largest-allocation-first (ties toward the
        lowest index); a donor is never drained below one slot if it
        is itself at the starvation limit. Totals are preserved — a
        rescue moves a slot, never mints one.
        """
        rescued: List[int] = []
        starving = [
            i
            for i, sig in enumerate(signals)
            if sig.wants_training
            and slots[i] == 0
            and sig.staleness_epochs >= self.spec.starvation_epochs
        ]
        for tenant in starving:
            donors = sorted(
                (
                    d
                    for d in range(len(slots))
                    if d != tenant
                    and slots[d] > 0
                    and (
                        slots[d] > 1
                        or signals[d].staleness_epochs
                        < self.spec.starvation_epochs
                        or not signals[d].wants_training
                    )
                ),
                key=lambda d: (-slots[d], d),
            )
            if not donors:
                break
            donor = donors[0]
            slots[donor] -= 1
            slots[tenant] += 1
            self._ungrant(donor)
            self._grant(tenant)
            self._rescues += 1
            rescued.append(tenant)
        return rescued

    @staticmethod
    def _expand_order(slots: Sequence[int]) -> List[int]:
        order: List[int] = []
        for tenant, count in enumerate(slots):
            order.extend([tenant] * count)
        return order

    def _byte_quotas(
        self, signals: Sequence[TenantSignals]
    ) -> List[int]:
        """Weight-proportional byte quotas over the *active* tenants.

        ``round_robin`` stays naive (even split); exhausted tenants
        get a zero quota, releasing their materialized bytes back to
        the fleet. Quotas always sum to the global cap exactly.
        """
        active = [i for i, sig in enumerate(signals) if sig.active]
        if self.spec.policy == "round_robin":
            weights = [1.0] * len(active)
        else:
            weights = [signals[i].weight for i in active]
        split = largest_remainder(weights, self.spec.materialize_bytes)
        quotas = [0] * len(signals)
        for position, tenant in enumerate(active):
            quotas[tenant] = split[position]
        return quotas

    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        return {
            "passes": list(self._passes),
            "granted": list(self._granted),
            "rr_cursor": self._rr_cursor,
            "epoch": self._epoch,
            "rescues": self._rescues,
            "shares": self._shares.state_dict(),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self._passes = [float(p) for p in state["passes"]]
        self._granted = [int(g) for g in state["granted"]]
        self._rr_cursor = int(state["rr_cursor"])
        self._epoch = int(state["epoch"])
        self._rescues = int(state["rescues"])
        self._shares.load_state_dict(state["shares"])

    def __repr__(self) -> str:
        return (
            f"FleetScheduler(policy={self.spec.policy!r}, "
            f"epoch={self._epoch}, "
            f"balance={self.balance_score():.4f})"
        )

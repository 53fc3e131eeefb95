"""Tenant and fleet specifications (the fleet's declarative input).

A :class:`TenantSpec` names one deployment pipeline — which dataset
family it runs, its deployment strategy, drift profile, seed, and its
budget weight. A :class:`FleetSpec` is the full orchestrator input:
the tenant list plus the shared per-epoch budgets. Both round-trip
through plain JSON dicts (the CLI's ``--spec`` file format) and
validate eagerly with errors naming the offending field.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, fields
from typing import Any, Dict, Mapping, Tuple

from repro.exceptions import ValidationError
from repro.utils.validation import check_positive_int

#: Dataset families a tenant can run.
DATASETS = ("url", "taxi")

#: Deployment strategies: ``continuous`` tenants want proactive
#: training whenever triggers say so, ``periodic`` tenants want it on
#: a fixed staleness cadence, ``online`` tenants opted out (online SGD
#: updates only) — the scheduler gives them no urgency.
STRATEGIES = ("continuous", "periodic", "online")

#: Drift profiles for the tenant's data stream. Taxi streams are
#: stationary by construction and only accept ``stable``.
DRIFT_PROFILES = ("stable", "gradual", "abrupt")

#: Fleet scheduling policies.
POLICIES = ("fair_share", "round_robin")


def _check_choice(value: str, allowed: Tuple[str, ...], field_name: str) -> None:
    if value not in allowed:
        raise ValidationError(
            f"{field_name} must be one of {allowed}, got {value!r}"
        )


def _check_int(value: Any, field_name: str, minimum: int = 0) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(
            f"{field_name} must be an int, got {type(value).__name__}"
        )
    if value < minimum:
        raise ValidationError(
            f"{field_name} must be >= {minimum}, got {value}"
        )


def _from_mapping(cls, raw: Mapping[str, Any], what: str):
    """Shared dict -> dataclass path rejecting unknown keys by name."""
    if not isinstance(raw, Mapping):
        raise ValidationError(
            f"{what} must be a mapping, got {type(raw).__name__}"
        )
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ValidationError(
            f"unknown {what} field(s): {', '.join(unknown)}"
        )
    missing = sorted(
        f.name
        for f in fields(cls)
        if f.default is MISSING
        and f.default_factory is MISSING  # type: ignore[misc]
        and f.name not in raw
    )
    if missing:
        raise ValidationError(
            f"missing {what} field(s): {', '.join(missing)}"
        )
    return cls(**dict(raw))


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: dataset, strategy, seed, and budget weight."""

    name: str
    dataset: str
    seed: int
    weight: float = 1.0
    strategy: str = "continuous"
    drift: str = "stable"
    #: Stream length (deployment chunks) for this tenant.
    chunks: int = 16
    #: Rows per stream chunk.
    rows: int = 12

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValidationError(
                f"name must be a non-empty string, got {self.name!r}"
            )
        _check_choice(self.dataset, DATASETS, "dataset")
        _check_choice(self.strategy, STRATEGIES, "strategy")
        _check_choice(self.drift, DRIFT_PROFILES, "drift")
        _check_int(self.seed, "seed", minimum=0)
        if (
            not isinstance(self.weight, (int, float))
            or isinstance(self.weight, bool)
            or not math.isfinite(self.weight)
            or self.weight <= 0
        ):
            raise ValidationError(
                f"weight must be a positive finite number, "
                f"got {self.weight!r}"
            )
        check_positive_int(self.chunks, "chunks")
        check_positive_int(self.rows, "rows")
        if self.dataset == "taxi" and self.drift != "stable":
            raise ValidationError(
                f"drift must be 'stable' for taxi tenants "
                f"(the stream is stationary), got {self.drift!r}"
            )

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "TenantSpec":
        return _from_mapping(cls, raw, "TenantSpec")


@dataclass(frozen=True)
class FleetSpec:
    """The orchestrator input: tenants + shared per-epoch budgets."""

    tenants: Tuple[TenantSpec, ...]
    #: Proactive-training slots the scheduler hands out per epoch.
    train_slots: int = 4
    #: Fleet-level materialization cap (bytes), divided across tenants
    #: by weight every epoch.
    materialize_bytes: int = 262144
    #: Stream chunks each active tenant ingests per epoch.
    chunks_per_epoch: int = 1
    policy: str = "fair_share"
    seed: int = 0
    #: A training-eligible tenant unallocated for this many epochs is
    #: rescued by the starvation guard.
    starvation_epochs: int = 6
    #: Hard epoch cap; 0 = run until every stream is exhausted.
    max_epochs: int = 0

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ValidationError("tenants must name at least one tenant")
        tenants = tuple(
            TenantSpec.from_dict(t) if isinstance(t, Mapping) else t
            for t in self.tenants
        )
        for tenant in tenants:
            if not isinstance(tenant, TenantSpec):
                raise ValidationError(
                    f"tenants entries must be TenantSpec, got "
                    f"{type(tenant).__name__}"
                )
        object.__setattr__(self, "tenants", tenants)
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValidationError(
                f"tenants must have unique names; duplicated: "
                f"{', '.join(dupes)}"
            )
        check_positive_int(self.train_slots, "train_slots")
        check_positive_int(self.materialize_bytes, "materialize_bytes")
        check_positive_int(self.chunks_per_epoch, "chunks_per_epoch")
        _check_choice(self.policy, POLICIES, "policy")
        _check_int(self.seed, "seed", minimum=0)
        check_positive_int(self.starvation_epochs, "starvation_epochs")
        _check_int(self.max_epochs, "max_epochs", minimum=0)

    @property
    def num_tenants(self) -> int:
        return len(self.tenants)

    @property
    def epochs(self) -> int:
        """Epochs a full run takes (stream length / ingest rate)."""
        longest = max(t.chunks for t in self.tenants)
        natural = -(-longest // self.chunks_per_epoch)
        if self.max_epochs:
            return min(natural, self.max_epochs)
        return natural

    def to_dict(self) -> Dict[str, Any]:
        out = asdict(self)
        out["tenants"] = [t.to_dict() for t in self.tenants]
        return out

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "FleetSpec":
        spec = _from_mapping(cls, dict(raw), "FleetSpec")
        return spec

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FleetSpec":
        try:
            raw = json.loads(text)
        except ValueError as error:
            raise ValidationError(
                f"fleet spec is not valid JSON: {error}"
            ) from error
        return cls.from_dict(raw)


#: Deterministic per-tenant knob cycles used by :func:`make_fleet`.
_DRIFT_CYCLE = ("gradual", "abrupt", "gradual", "stable")
_WEIGHT_CYCLE = (2.0, 1.0, 1.5, 0.5)
#: Taxi tenants rotate premium / budget / opted-out tiers.
_TAXI_WEIGHT_CYCLE = (2.0, 0.5, 1.0)


def make_fleet(
    num_tenants: int,
    seed: int = 0,
    policy: str = "fair_share",
    chunks: int = 16,
    rows: int = 12,
    train_slots: int = 0,
    materialize_bytes: int = 0,
    max_epochs: int = 0,
) -> FleetSpec:
    """A deterministic mixed URL/taxi fleet.

    Two of every three tenants run the drifting URL workload (drift
    profile and weight cycling deterministically, heavier weights on
    the faster-drifting tenants), the third runs the stationary taxi
    workload; every third taxi tenant opts out of proactive training
    (``online`` strategy). ``train_slots``/``materialize_bytes``
    default to ~1 slot per 4 tenants and ~24 KiB per tenant.
    """
    check_positive_int(num_tenants, "num_tenants")
    tenants = []
    for index in range(num_tenants):
        is_taxi = index % 3 == 2
        dataset = "taxi" if is_taxi else "url"
        drift = "stable" if is_taxi else _DRIFT_CYCLE[index % len(_DRIFT_CYCLE)]
        if is_taxi:
            # Taxi tenants cycle premium (2.0) / budget (0.5) tiers;
            # every third one opts out of fleet training entirely and
            # relies on its own online updates instead.
            tier = (index // 3) % len(_TAXI_WEIGHT_CYCLE)
            strategy = "online" if tier == 2 else "continuous"
            weight = _TAXI_WEIGHT_CYCLE[tier]
        else:
            strategy = "continuous"
            weight = _WEIGHT_CYCLE[index % len(_WEIGHT_CYCLE)]
        tenants.append(
            TenantSpec(
                name=f"{dataset}-{index:02d}",
                dataset=dataset,
                seed=seed * 1000 + 17 * index,
                weight=weight,
                strategy=strategy,
                drift=drift,
                chunks=chunks,
                rows=rows,
            )
        )
    return FleetSpec(
        tenants=tuple(tenants),
        # Scarce enough that tenants genuinely compete for slots, but
        # rich enough that a uniform share stays under the starvation
        # limit (a guard that binds every epoch would flatten the
        # policies into each other).
        train_slots=train_slots or max(2, num_tenants // 4),
        materialize_bytes=materialize_bytes or num_tenants * 24576,
        policy=policy,
        seed=seed,
        # With slots this scarce a uniform share means long gaps
        # between any one tenant's slots; a tight starvation limit
        # would rescue-storm the schedule back to round robin. Keep
        # the guard a genuine backstop.
        starvation_epochs=10,
        max_epochs=max_epochs,
    )

"""TenantSpec/FleetSpec: validation naming fields, JSON round-trips."""

from __future__ import annotations

import pytest

from repro.exceptions import ValidationError
from repro.fleet import FleetSpec, TenantSpec, make_fleet


def _tenant(**overrides) -> TenantSpec:
    base = dict(name="t0", dataset="url", seed=1)
    base.update(overrides)
    return TenantSpec(**base)


class TestTenantSpec:
    def test_round_trip(self):
        spec = _tenant(weight=2.5, strategy="periodic", drift="abrupt")
        assert TenantSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"dataset": "mnist"}, "dataset"),
            ({"strategy": "eager"}, "strategy"),
            ({"drift": "cyclic"}, "drift"),
            ({"seed": -1}, "seed"),
            ({"weight": 0.0}, "weight"),
            ({"weight": float("nan")}, "weight"),
            ({"chunks": 0}, "chunks"),
            ({"rows": 0}, "rows"),
            ({"name": ""}, "name"),
        ],
    )
    def test_validation_names_offending_field(self, overrides, field):
        with pytest.raises(ValidationError, match=field):
            _tenant(**overrides)

    def test_taxi_streams_are_stationary(self):
        with pytest.raises(ValidationError, match="drift"):
            _tenant(dataset="taxi", drift="gradual")

    def test_unknown_key_rejected_by_name(self):
        raw = _tenant().to_dict()
        raw["colour"] = "red"
        with pytest.raises(ValidationError, match="colour"):
            TenantSpec.from_dict(raw)

    def test_missing_key_rejected_by_name(self):
        with pytest.raises(ValidationError, match="dataset"):
            TenantSpec.from_dict({"name": "t0", "seed": 1})


class TestFleetSpec:
    def test_nested_tenant_dicts_are_coerced(self):
        spec = make_fleet(3, seed=1)
        raw = spec.to_dict()
        assert all(isinstance(t, dict) for t in raw["tenants"])
        assert FleetSpec.from_dict(raw) == spec

    def test_duplicate_tenant_names_rejected(self):
        with pytest.raises(ValidationError, match="t0"):
            FleetSpec(tenants=(_tenant(), _tenant(seed=2)))

    def test_bad_policy_names_field(self):
        with pytest.raises(ValidationError, match="policy"):
            FleetSpec(tenants=(_tenant(),), policy="lottery")

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValidationError, match="tenants"):
            FleetSpec(tenants=())

    def test_epochs_covers_longest_stream(self):
        spec = FleetSpec(
            tenants=(
                _tenant(chunks=10),
                _tenant(name="t1", chunks=4),
            ),
            chunks_per_epoch=3,
        )
        assert spec.epochs == 4  # ceil(10 / 3)
        capped = FleetSpec(
            tenants=spec.tenants, chunks_per_epoch=3, max_epochs=2
        )
        assert capped.epochs == 2


class TestMakeFleet:
    def test_deterministic(self):
        assert make_fleet(12, seed=7) == make_fleet(12, seed=7)

    def test_mixed_datasets_and_opt_outs(self):
        spec = make_fleet(24, seed=0)
        datasets = [t.dataset for t in spec.tenants]
        assert datasets.count("taxi") == 8
        assert datasets.count("url") == 16
        online = [t for t in spec.tenants if t.strategy == "online"]
        assert online and all(t.dataset == "taxi" for t in online)

    def test_budgets_scale_with_fleet_size(self):
        spec = make_fleet(24, seed=0)
        assert spec.train_slots == 6
        assert spec.materialize_bytes == 24 * 24576
        assert make_fleet(2, seed=0).train_slots == 2

    def test_overrides_win(self):
        spec = make_fleet(
            6, seed=1, train_slots=9, materialize_bytes=4096
        )
        assert spec.train_slots == 9
        assert spec.materialize_bytes == 4096

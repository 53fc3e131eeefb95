"""Unit tests for the deployment configuration dataclasses."""

import pytest

from repro.core.config import (
    ContinuousConfig,
    PeriodicalConfig,
    ScheduleConfig,
)
from repro.exceptions import ValidationError


class TestScheduleConfig:
    def test_defaults(self):
        config = ScheduleConfig()
        assert config.kind == "static"
        assert config.interval_chunks == 5

    def test_invalid_kind(self):
        with pytest.raises(
            ValidationError, match="'static', 'dynamic' or 'none'"
        ):
            ScheduleConfig(kind="cron")

    def test_invalid_interval(self):
        with pytest.raises(ValidationError):
            ScheduleConfig(interval_chunks=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"slack": 0.5},
            {"slack": float("nan")},
            {"slack": float("inf")},
            {"initial_interval": 0.0},
            {"initial_interval": float("nan")},
        ],
        ids=lambda kwargs: "-".join(f"{k}={v}" for k, v in kwargs.items()),
    )
    def test_invalid_dynamic_parameters(self, kwargs):
        """Refused here, not when a platform is later built from it."""
        (name,) = kwargs
        with pytest.raises(ValidationError, match=name):
            ScheduleConfig(kind="dynamic", **kwargs)


class TestPeriodicalConfig:
    def test_defaults(self):
        config = PeriodicalConfig()
        assert config.warm_start
        assert config.batch_size is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"retrain_every_chunks": 0},
            {"max_epoch_iterations": 0},
            {"batch_size": 0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValidationError):
            PeriodicalConfig(**kwargs)


class TestContinuousConfig:
    def test_defaults(self):
        config = ContinuousConfig()
        assert config.online_statistics
        assert config.online_update
        assert config.max_materialized_chunks is None

    def test_window_sampler_requires_size(self):
        with pytest.raises(ValidationError, match="window_size"):
            ContinuousConfig(sampler="window")
        ContinuousConfig(sampler="window", window_size=10)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sample_size_chunks": 0},
            {"sampler": "stratified"},
            {"max_materialized_chunks": -1},
            {"online_batch_rows": 0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValidationError):
            ContinuousConfig(**kwargs)

    def test_frozen(self):
        config = ContinuousConfig()
        with pytest.raises(AttributeError):
            config.sampler = "uniform"

"""Argument-validation helpers.

These raise :class:`repro.exceptions.ValidationError` with a message
naming the offending parameter, so configuration mistakes surface at
construction time rather than deep inside a deployment run.
"""

from __future__ import annotations

import math
from typing import Any

from repro.exceptions import ValidationError


def check_positive(value: float, name: str) -> float:
    """Validate that ``value`` is a finite number > 0 and return it."""
    _check_real(value, name)
    if value <= 0:
        raise ValidationError(f"{name} must be > 0, got {value!r}")
    return float(value)


def check_non_negative(value: float, name: str) -> float:
    """Validate that ``value`` is a finite number >= 0 and return it."""
    _check_real(value, name)
    if value < 0:
        raise ValidationError(f"{name} must be >= 0, got {value!r}")
    return float(value)


def check_fraction(value: float, name: str) -> float:
    """Validate that ``value`` lies in [0, 1] and return it."""
    _check_real(value, name)
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"{name} must be in [0, 1], got {value!r}")
    return float(value)


def check_positive_int(value: Any, name: str) -> int:
    """Validate that ``value`` is an integer >= 1 and return it."""
    return _check_int(value, name, 1)


def check_non_negative_int(value: Any, name: str) -> int:
    """Validate that ``value`` is an integer >= 0 and return it."""
    return _check_int(value, name, 0)


def _check_int(value: Any, name: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, (int,)):
        raise ValidationError(f"{name} must be an int, got {value!r}")
    if value < minimum:
        raise ValidationError(
            f"{name} must be >= {minimum}, got {value!r}"
        )
    return int(value)


def _check_real(value: Any, name: str) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    if math.isnan(value) or math.isinf(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")

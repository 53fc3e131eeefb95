"""Shared utilities: RNG handling, validation helpers."""

from repro.utils.rng import ensure_rng, spawn_rng
from repro.utils.validation import (
    check_fraction,
    check_non_negative,
    check_positive,
    check_positive_int,
)

__all__ = [
    "ensure_rng",
    "spawn_rng",
    "check_fraction",
    "check_non_negative",
    "check_positive",
    "check_positive_int",
]

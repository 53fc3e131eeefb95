"""Lint configuration: which rules run, over which files.

The shipped :func:`default_config` encodes the project policy: both
rules run over everything under ``src/``. A JSON config file with the
same fields can override any of it (see :func:`load_config`);
malformed configuration raises
:class:`~repro.analysis.base.ConfigError`, which the CLI maps to exit
code 2.

Exclude patterns are :mod:`fnmatch`-style globs matched against the
repo-relative posix path; ``*`` crosses directory separators, so
``*vendored*`` covers a whole subtree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fnmatch import fnmatch
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.analysis.base import ConfigError
from repro.analysis.progrules import PROGRAM_RULES_BY_ID

#: The rules the shipped config runs, over every linted file.
GLOBAL_RULES = ("REP012", "REP014")


@dataclass(frozen=True)
class LintConfig:
    """Everything one lint run needs besides the file list."""

    roots: Tuple[str, ...] = ("src",)
    select: Tuple[str, ...] = GLOBAL_RULES
    exclude: Tuple[str, ...] = ("*__pycache__*",)
    baseline: Optional[str] = "reprolint-baseline.json"

    def __post_init__(self) -> None:
        for rule_id in self.select:
            _require_known(rule_id)

    def is_excluded(self, relpath: str) -> bool:
        return any(fnmatch(relpath, pattern) for pattern in self.exclude)


def _require_known(rule_id: str) -> None:
    if rule_id not in PROGRAM_RULES_BY_ID:
        raise ConfigError(
            f"unknown rule id {rule_id!r}; known rules are "
            f"{', '.join(sorted(PROGRAM_RULES_BY_ID))}"
        )


def default_config() -> LintConfig:
    """The committed project policy (what CI runs)."""
    return LintConfig()


def _str_tuple(raw: object, label: str) -> Tuple[str, ...]:
    if not isinstance(raw, list) or not all(
        isinstance(item, str) for item in raw
    ):
        raise ConfigError(f"config field {label!r} must be a list of strings")
    return tuple(raw)


def load_config(path: Path) -> LintConfig:
    """Parse a JSON config file into a :class:`LintConfig`.

    Unknown fields, non-JSON content, bad types, and unknown rule ids
    all raise :class:`ConfigError` — a broken config must never be
    mistaken for a clean run.
    """
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as error:
        raise ConfigError(f"cannot read config {path}: {error}") from error
    except json.JSONDecodeError as error:
        raise ConfigError(f"config {path} is not valid JSON: {error}") from error
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    known = {"roots", "select", "exclude", "baseline"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(
            f"config {path} has unknown field(s): "
            f"{', '.join(sorted(unknown))}"
        )
    fields: Dict[str, object] = {
        key: _str_tuple(raw[key], key)
        for key in ("roots", "select", "exclude")
        if key in raw
    }
    if "baseline" in raw:
        if raw["baseline"] is not None and not isinstance(raw["baseline"], str):
            raise ConfigError(
                f"config {path}: 'baseline' must be a string path or null"
            )
        fields["baseline"] = raw["baseline"]
    return LintConfig(**fields)

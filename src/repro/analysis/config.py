"""Lint configuration: which rules run where.

The shipped :func:`default_config` encodes the project policy — the
vocabulary and pairing rules run everywhere under ``src/``, while the
path-scoped rules (wall-clock, bare-except, mutable-default) are
enabled only for the subsystems whose contracts they protect. A JSON
config file with the same fields can override any of it (see
:func:`load_config`); malformed configuration raises
:class:`~repro.analysis.base.ConfigError`, which the CLI maps to
exit code 2.

Path patterns are :mod:`fnmatch`-style globs matched against the
repo-relative posix path; ``*`` crosses directory separators, so
``src/repro/core/*`` covers the whole subtree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.base import ConfigError
from repro.analysis.rulepack import RULES_BY_ID

#: Rules that run on every linted file unless a policy disables them.
#: REP009/REP012/REP014 are whole-program rules (DESIGN.md
#: §14): they run in the program pass and anchor findings at
#: definition sites, but are scoped by the same per-path machinery.
GLOBAL_RULES = (
    "REP001",
    "REP004",
    "REP005",
    "REP009",
    "REP012",
    "REP013",
    "REP014",
)


@dataclass(frozen=True)
class PathPolicy:
    """Enable/disable adjustments for paths matching ``pattern``.

    Policies apply in declaration order on top of the global ``select``
    set, so later policies win on overlap.
    """

    pattern: str
    enable: Tuple[str, ...] = ()
    disable: Tuple[str, ...] = ()

    def matches(self, relpath: str) -> bool:
        return fnmatch(relpath, self.pattern)


@dataclass(frozen=True)
class LintConfig:
    """Everything one lint run needs besides the file list."""

    roots: Tuple[str, ...] = ("src",)
    select: Tuple[str, ...] = GLOBAL_RULES
    per_path: Tuple[PathPolicy, ...] = ()
    exclude: Tuple[str, ...] = ("*__pycache__*",)
    baseline: Optional[str] = "reprolint-baseline.json"

    def __post_init__(self) -> None:
        for rule_id in self.select:
            _require_known(rule_id)
        for policy in self.per_path:
            for rule_id in policy.enable + policy.disable:
                _require_known(rule_id)

    def rules_for_path(self, relpath: str) -> Tuple[str, ...]:
        """Rule ids enabled for ``relpath``, in stable id order."""
        active = set(self.select)
        for policy in self.per_path:
            if policy.matches(relpath):
                active.update(policy.enable)
                active.difference_update(policy.disable)
        return tuple(sorted(active))

    def is_excluded(self, relpath: str) -> bool:
        return any(fnmatch(relpath, pattern) for pattern in self.exclude)


def _require_known(rule_id: str) -> None:
    from repro.analysis.progrules import PROGRAM_RULES_BY_ID

    if rule_id not in RULES_BY_ID and rule_id not in PROGRAM_RULES_BY_ID:
        known = sorted(set(RULES_BY_ID) | set(PROGRAM_RULES_BY_ID))
        raise ConfigError(
            f"unknown rule id {rule_id!r}; known rules are "
            f"{', '.join(known)}"
        )


def default_config() -> LintConfig:
    """The committed project policy (what CI runs)."""
    return LintConfig(
        roots=("src",),
        select=GLOBAL_RULES,
        per_path=(
            # Virtual-clock discipline: the cost model, engine, and
            # scheduler paths. The dual-clock tracer (obs/) legitimately
            # reads wall time and stays outside these patterns.
            PathPolicy("src/repro/core/*", enable=("REP002",)),
            PathPolicy("src/repro/execution/*", enable=("REP002",)),
            # No swallowed exceptions where recovery correctness lives.
            PathPolicy("src/repro/core/*", enable=("REP007",)),
            PathPolicy("src/repro/reliability/*", enable=("REP007",)),
            PathPolicy("src/repro/serving/*", enable=("REP007",)),
            # Numeric hygiene in the model/optimizer and engine code.
            PathPolicy("src/repro/ml/*", enable=("REP008",)),
            PathPolicy("src/repro/execution/*", enable=("REP008",)),
            # The one sanctioned RNG construction site.
            PathPolicy("src/repro/utils/rng.py", disable=("REP001",)),
            # Deterministic iteration where replay/recovery byte-
            # identity is on the line: the engine, the data plane,
            # the ML kernels, and every subsystem that replays.
            PathPolicy("src/repro/core/*", enable=("REP010",)),
            PathPolicy("src/repro/execution/*", enable=("REP010",)),
            PathPolicy("src/repro/ml/*", enable=("REP010",)),
            PathPolicy("src/repro/data/*", enable=("REP010",)),
            PathPolicy("src/repro/fleet/*", enable=("REP010",)),
            PathPolicy("src/repro/reliability/*", enable=("REP010",)),
            PathPolicy("src/repro/traffic/*", enable=("REP010",)),
            # The sanctioned wall-clock reader: the dual-clock tracer.
            # Disabling REP013 here both spares its own defs and marks
            # them as sanctioned chain endpoints for everyone else
            # (progrules.py).
            PathPolicy("src/repro/obs/*", disable=("REP013",)),
        ),
        exclude=("*__pycache__*",),
        baseline="reprolint-baseline.json",
    )


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
    known = {"roots", "select", "per_path", "exclude", "baseline"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(
            f"config {path} has unknown field(s): "
            f"{', '.join(sorted(unknown))}"
        )
    defaults = default_config()
    policies: List[PathPolicy] = []
    for entry in raw.get("per_path", []):
        if not isinstance(entry, dict) or "pattern" not in entry:
            raise ConfigError(
                "each per_path entry must be an object with a 'pattern'"
            )
        extra = set(entry) - {"pattern", "enable", "disable"}
        if extra:
            raise ConfigError(
                f"per_path entry has unknown field(s): "
                f"{', '.join(sorted(extra))}"
            )
        policies.append(
            PathPolicy(
                pattern=str(entry["pattern"]),
                enable=_str_tuple(entry.get("enable", []), "enable"),
                disable=_str_tuple(entry.get("disable", []), "disable"),
            )
        )
    return LintConfig(
        roots=(
            _str_tuple(raw["roots"], "roots")
            if "roots" in raw
            else defaults.roots
        ),
        select=(
            _str_tuple(raw["select"], "select")
            if "select" in raw
            else defaults.select
        ),
        per_path=tuple(policies) if "per_path" in raw else defaults.per_path,
        exclude=(
            _str_tuple(raw["exclude"], "exclude")
            if "exclude" in raw
            else defaults.exclude
        ),
        baseline=(
            raw["baseline"]
            if "baseline" in raw and (
                raw["baseline"] is None or isinstance(raw["baseline"], str)
            )
            else defaults.baseline
            if "baseline" not in raw
            else _bad_baseline(path)
        ),
    )


def _bad_baseline(path: Path) -> None:
    raise ConfigError(
        f"config {path}: 'baseline' must be a string path or null"
    )

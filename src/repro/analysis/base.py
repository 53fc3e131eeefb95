"""Core types of the reprolint framework.

reprolint is a small AST linter that mechanically enforces the
platform's subsystem layering and telemetry vocabulary (see
``DESIGN.md`` §9 and §14). This module holds what every rule shares:

* :class:`ParsedModule` — one parsed source file plus the metadata
  rules need (source lines, inline suppressions, repo-relative path).
* :class:`Finding` — one violation, carrying a content-based
  fingerprint so baseline entries survive unrelated line drift.

Inline suppression uses ``# repro: noqa[REP012]`` (or a blanket
``# repro: noqa``) on the offending line; the engine drops matching
findings and reports how many were suppressed.
"""

from __future__ import annotations

import ast
import hashlib
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional

#: ``# repro: noqa`` or ``# repro: noqa[REP012,REP014]``.
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Za-z0-9_,\s]+)\])?"
)


class ConfigError(Exception):
    """A broken lint configuration or baseline (CLI exit code 2)."""


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule_id: str
    path: str  # repo-relative posix path
    line: int  # 1-based
    col: int  # 0-based, as ast reports it
    message: str
    snippet: str = ""  # stripped source line, for fingerprinting

    def fingerprint(self) -> str:
        """Content-based identity for baseline matching.

        Hashes the rule, path, and the *text* of the offending line —
        not its number — so entries survive edits elsewhere in the
        file but go stale when the flagged code itself changes.
        """
        payload = f"{self.rule_id}|{self.path}|{self.snippet}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "fingerprint": self.fingerprint(),
        }

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col + 1}: "
            f"{self.rule_id} {self.message}"
        )


def _parse_suppressions(
    source: str,
) -> Dict[int, Optional[FrozenSet[str]]]:
    """Map line number -> suppressed rule ids (``None`` = all rules).

    Uses the tokenizer-free line scan on purpose: suppression comments
    are line-scoped, and a regex over raw lines also catches comments
    inside multi-line expressions where the token stream would need
    logical-line bookkeeping.
    """
    table: Dict[int, Optional[FrozenSet[str]]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(text)
        if match is None:
            continue
        rules = match.group("rules")
        if rules is None:
            table[lineno] = None
        else:
            ids = frozenset(
                part.strip().upper()
                for part in rules.split(",")
                if part.strip()
            )
            table[lineno] = ids or None
    return table


@dataclass
class ParsedModule:
    """One source file, parsed once and shared by every rule."""

    path: Path
    relpath: str  # posix, relative to the lint root
    source: str
    tree: ast.AST
    lines: List[str] = field(default_factory=list)
    suppressions: Dict[int, Optional[FrozenSet[str]]] = field(
        default_factory=dict
    )

    @classmethod
    def parse(cls, path: Path, relpath: str) -> "ParsedModule":
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        return cls(
            path=path,
            relpath=relpath,
            source=source,
            tree=tree,
            lines=source.splitlines(),
            suppressions=_parse_suppressions(source),
        )

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def is_suppressed(self, rule_id: str, lineno: int) -> bool:
        if lineno not in self.suppressions:
            return False
        ids = self.suppressions[lineno]
        return ids is None or rule_id in ids

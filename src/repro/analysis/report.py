"""Text and JSON renderings of a :class:`LintResult`."""

from __future__ import annotations

import json

from repro.analysis.engine import LintResult
from repro.analysis.progrules import PROGRAM_RULES


def format_text(result: LintResult) -> str:
    """Human-readable report: one line per finding plus a summary."""
    lines = [finding.render() for finding in result.findings]
    summary = (
        f"{len(result.findings)} finding(s) in "
        f"{result.files_scanned} file(s)"
    )
    extras = []
    if result.baselined:
        extras.append(f"{len(result.baselined)} baselined")
    if result.suppressed:
        extras.append(f"{len(result.suppressed)} noqa-suppressed")
    if extras:
        summary += f" ({', '.join(extras)})"
    lines.append(summary)
    return "\n".join(lines)


def format_json(result: LintResult) -> str:
    """Machine-readable report (what the CI job consumes)."""
    payload = {
        "findings": [f.to_dict() for f in result.findings],
        "baselined": [f.to_dict() for f in result.baselined],
        "suppressed": len(result.suppressed),
        "files_scanned": result.files_scanned,
        "clean": result.clean,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def format_rules() -> str:
    """The ``repro lint --list-rules`` table."""
    return "\n".join(
        f"{rule.rule_id}  {rule.name:<18} {rule.description}"
        for rule in PROGRAM_RULES
    )

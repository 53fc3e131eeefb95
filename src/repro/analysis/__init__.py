"""reprolint — the platform's AST-based invariant checker.

Parses ``src/`` once, builds one whole-program model of it
(:mod:`repro.analysis.program`), and runs two checks over that model,
each a function returning its findings: the subsystem layering
(REP012) and the live telemetry vocabulary (REP014), the two
contracts no behaviour test can see (DESIGN.md §9, §14). Run it via
``repro lint``, ``make lint``, or programmatically::

    from pathlib import Path
    from repro.analysis import lint

    findings = lint(Path("."))
    assert not findings, [f.render() for f in findings]
"""

from repro.analysis.checks import (
    LAYERS,
    Finding,
    check_dead_telemetry,
    check_layering,
    lint,
    source_files,
)
from repro.analysis.program import ParsedModule, ProgramModel

__all__ = [
    "Finding",
    "LAYERS",
    "ParsedModule",
    "ProgramModel",
    "check_dead_telemetry",
    "check_layering",
    "lint",
    "source_files",
]

"""reprolint — the platform's AST-based invariant linter.

Parses the tree once, builds one whole-program model of it, and runs
two rules over that model: the subsystem layering and the live
telemetry vocabulary, the two contracts no behaviour test can see
(DESIGN.md §9, §14). Run it via ``repro lint``, ``make lint``, or
programmatically::

    from pathlib import Path
    from repro.analysis import run_lint

    result = run_lint(Path("."))
    assert result.clean, [f.render() for f in result.findings]
"""

from repro.analysis.base import ConfigError, Finding, ParsedModule
from repro.analysis.baseline import (
    Baseline,
    BaselineEntry,
    load_baseline,
    write_baseline,
)
from repro.analysis.config import (
    GLOBAL_RULES,
    LintConfig,
    default_config,
    load_config,
)
from repro.analysis.engine import (
    PARSE_ERROR_RULE,
    LintResult,
    iter_source_files,
    run_lint,
    run_program_rules,
)
from repro.analysis.program import ProgramModel
from repro.analysis.progrules import (
    PROGRAM_RULES,
    PROGRAM_RULES_BY_ID,
    ProgramReporter,
    ProgramRule,
    program_rules_for,
)
from repro.analysis.report import format_json, format_rules, format_text

__all__ = [
    "Baseline",
    "BaselineEntry",
    "ConfigError",
    "Finding",
    "GLOBAL_RULES",
    "LintConfig",
    "LintResult",
    "PARSE_ERROR_RULE",
    "PROGRAM_RULES",
    "PROGRAM_RULES_BY_ID",
    "ParsedModule",
    "ProgramModel",
    "ProgramReporter",
    "ProgramRule",
    "default_config",
    "format_json",
    "format_rules",
    "format_text",
    "iter_source_files",
    "load_baseline",
    "load_config",
    "program_rules_for",
    "run_lint",
    "run_program_rules",
    "write_baseline",
]

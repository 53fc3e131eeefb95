"""The lint driver: parse files, build the model, run the rules.

:func:`run_lint` is the one entry point the CLI, ``make lint``, CI,
and the test suite all share. It does three things:

1. parse every file of the configured tree once;
2. build the whole-program model (:mod:`repro.analysis.program`) from
   all of them — even when explicit paths narrow the run, since
   cross-file reasoning needs the rest of the program;
3. run the rules (:mod:`repro.analysis.progrules`) over the model.

Findings are anchored at definition sites, so noqa and the baseline
apply per line; when the scan is narrowed, only findings anchored in
the targeted files are reported.

A file that fails to parse surfaces as a ``REP000`` finding (broken
source can't certify any invariant); configuration problems raise
:class:`~repro.analysis.base.ConfigError` instead of producing a
result, so a misconfigured run can never masquerade as a clean one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.analysis.base import ConfigError, Finding, ParsedModule
from repro.analysis.baseline import Baseline, load_baseline
from repro.analysis.config import LintConfig, default_config
from repro.analysis.program import ProgramModel
from repro.analysis.progrules import ProgramReporter, program_rules_for

#: Pseudo-rule for unparseable source files.
PARSE_ERROR_RULE = "REP000"


@dataclass
class LintResult:
    """Everything one lint run produced."""

    findings: List[Finding] = field(default_factory=list)
    baselined: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    files_scanned: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    def exit_code(self) -> int:
        """0 = clean, 1 = findings (config errors raise instead)."""
        return 0 if self.clean else 1


def iter_source_files(
    root: Path, config: LintConfig, paths: Optional[Sequence[str]] = None
) -> List[Tuple[Path, str]]:
    """(absolute path, repo-relative posix path) pairs to lint.

    ``paths`` (files or directories, relative to ``root`` or
    absolute) narrows the scan; by default the configured roots are
    walked. Missing explicit paths raise :class:`ConfigError`.
    """
    targets: List[Path] = []
    if paths:
        for entry in paths:
            candidate = Path(entry)
            if not candidate.is_absolute():
                candidate = root / candidate
            if not candidate.exists():
                raise ConfigError(f"lint target does not exist: {entry}")
            targets.append(candidate)
    else:
        for name in config.roots:
            candidate = root / name
            if candidate.exists():
                targets.append(candidate)
        if not targets:
            raise ConfigError(
                f"none of the configured roots exist under {root}: "
                f"{', '.join(config.roots)}"
            )
    seen = set()
    pairs: List[Tuple[Path, str]] = []
    for target in targets:
        files = (
            sorted(target.rglob("*.py")) if target.is_dir() else [target]
        )
        for file in files:
            try:
                relpath = file.resolve().relative_to(root.resolve())
                rel = relpath.as_posix()
            except ValueError:
                rel = file.as_posix()
            if rel in seen or config.is_excluded(rel):
                continue
            seen.add(rel)
            pairs.append((file, rel))
    return pairs


def _parse_error_finding(relpath: str, error: SyntaxError) -> Finding:
    return Finding(
        rule_id=PARSE_ERROR_RULE,
        path=relpath,
        line=error.lineno or 1,
        col=(error.offset or 1) - 1,
        message=f"file does not parse: {error.msg}",
    )


def run_program_rules(
    model: ProgramModel, config: LintConfig
) -> Tuple[List[Finding], List[Finding]]:
    """Run every configured program rule over ``model``.

    Returns (findings, suppressed); the caller applies the baseline
    and any target-path narrowing.
    """
    findings: List[Finding] = []
    suppressed: List[Finding] = []
    for rule in program_rules_for(config.select):
        reporter = ProgramReporter(rule.rule_id)
        rule.check(model, reporter)
        findings.extend(reporter.findings)
        suppressed.extend(reporter.suppressed)
    return findings, suppressed


def run_lint(
    root: Path,
    config: Optional[LintConfig] = None,
    paths: Optional[Sequence[str]] = None,
    baseline: Optional[Baseline] = None,
) -> LintResult:
    """Lint the tree under ``root`` with ``config``.

    ``baseline=None`` loads the configured baseline file (missing =
    empty); pass an explicit :class:`Baseline` to override.
    """
    config = config if config is not None else default_config()
    if baseline is None:
        if config.baseline is not None:
            baseline_path = Path(config.baseline)
            if not baseline_path.is_absolute():
                baseline_path = root / baseline_path
            baseline = load_baseline(baseline_path)
        else:
            baseline = Baseline()
    result = LintResult()
    target_pairs = iter_source_files(root, config, paths)
    target_set = {relpath for _, relpath in target_pairs}
    model_pairs = target_pairs
    if paths:
        # Explicit paths narrow *reporting*, not the model: the rules
        # still reason over the whole configured tree (falling back to
        # the targets when no configured root exists, e.g.
        # single-snippet test runs).
        try:
            full_pairs = iter_source_files(root, config, None)
        except ConfigError:
            full_pairs = []
        model_pairs = target_pairs + [
            pair for pair in full_pairs if pair[1] not in target_set
        ]
    modules: List[ParsedModule] = []
    for path, relpath in model_pairs:
        try:
            modules.append(ParsedModule.parse(path, relpath))
        except SyntaxError as error:
            if relpath in target_set:
                _classify(
                    result, baseline, [_parse_error_finding(relpath, error)]
                )
    result.files_scanned = len(target_pairs)
    findings, suppressed = run_program_rules(
        ProgramModel.build(modules), config
    )
    result.suppressed.extend(f for f in suppressed if f.path in target_set)
    _classify(result, baseline, [f for f in findings if f.path in target_set])
    result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return result


def _classify(
    result: LintResult, baseline: Baseline, findings: Sequence[Finding]
) -> None:
    for finding in findings:
        if baseline.matches(finding):
            result.baselined.append(finding)
        else:
            result.findings.append(finding)

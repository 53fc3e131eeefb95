"""Per-rule corpus tests: each rule flags, passes, and respects noqa.

Every rule lints a small written-out *file tree* so the cross-file
machinery — module naming, alias resolution, the import graph — is
what the fixture actually exercises.
"""

from __future__ import annotations

import pytest

from repro.analysis import LintConfig, run_lint
from tests.analysis.corpus import CORPUS, RULE_IDS, write_tree


def _lint_tree(tmp_path, rule_id, files):
    write_tree(tmp_path, files)
    config = LintConfig(roots=("src",), select=(rule_id,), baseline=None)
    return run_lint(tmp_path, config=config)


def test_corpus_covers_every_shipped_rule():
    from repro.analysis import PROGRAM_RULES_BY_ID

    assert RULE_IDS == sorted(PROGRAM_RULES_BY_ID)


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_program_rule_flags_the_bad_case(tmp_path, rule_id):
    result = _lint_tree(tmp_path, rule_id, CORPUS[(rule_id, "flag")])
    assert result.findings, f"{rule_id} missed its flagging fixture"
    assert all(f.rule_id == rule_id for f in result.findings)
    assert not result.suppressed


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_program_rule_passes_the_clean_case(tmp_path, rule_id):
    result = _lint_tree(tmp_path, rule_id, CORPUS[(rule_id, "clean")])
    assert result.clean, [f.render() for f in result.findings]


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_program_rule_respects_noqa_suppression(tmp_path, rule_id):
    flagged = _lint_tree(tmp_path, rule_id, CORPUS[(rule_id, "flag")])
    result = _lint_tree(tmp_path, rule_id, CORPUS[(rule_id, "noqa")])
    assert result.clean, [f.render() for f in result.findings]
    assert len(result.suppressed) == len(flagged.findings)
    assert all(f.rule_id == rule_id for f in result.suppressed)


def test_program_findings_anchor_at_definition_sites(tmp_path):
    # REP014 reports at the dead constant's assignment in names.py,
    # not at any emit site — the anchor is what noqa and the baseline
    # fingerprint key on.
    result = _lint_tree(tmp_path, "REP014", CORPUS[("REP014", "flag")])
    assert [f.path for f in result.findings] == ["src/repro/obs/names.py"]
    finding = result.findings[0]
    assert finding.snippet.startswith("DEAD_NAME =")
    assert "engine.never_emitted" in finding.message


TRAINER = "src/repro/ml/trainer.py"
UPWARD_IMPORT = "from repro.serving import registry"


def test_noqa_for_a_different_rule_does_not_suppress(tmp_path):
    files = dict(CORPUS[("REP012", "flag")])
    files[TRAINER] = files[TRAINER].replace(
        UPWARD_IMPORT, UPWARD_IMPORT + "  # repro: noqa[REP014]"
    )
    result = _lint_tree(tmp_path, "REP012", files)
    assert not result.clean


def test_findings_carry_stable_fingerprints(tmp_path):
    files = CORPUS[("REP012", "flag")]
    first = _lint_tree(tmp_path, "REP012", files)
    # Unrelated edits above the finding do not move the fingerprint.
    shifted = {TRAINER: "# a new leading comment\n" + files[TRAINER]}
    second = _lint_tree(tmp_path, "REP012", shifted)
    assert [f.fingerprint() for f in first.findings] == [
        f.fingerprint() for f in second.findings
    ]
    assert first.findings[0].line != second.findings[0].line

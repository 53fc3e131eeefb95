"""Per-check corpus tests: each check flags its bad case and passes
its clean one.

Every check lints a small written-out *file tree* so the cross-file
machinery — module naming, alias resolution, the import graph — is
what the fixture actually exercises.
"""

from __future__ import annotations

import pytest

from repro import analysis
from repro.analysis import check_dead_telemetry, check_layering, lint
from tests.analysis.corpus import CORPUS, RULE_IDS, write_tree

#: Each rule id and the check function that reports it.
CHECKS = {"REP012": check_layering, "REP014": check_dead_telemetry}


def test_corpus_covers_every_shipped_rule():
    shipped = {name for name in analysis.__all__ if name.startswith("check_")}
    assert shipped == {check.__name__ for check in CHECKS.values()}
    assert RULE_IDS == sorted(CHECKS)


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_program_rule_flags_the_bad_case(tmp_path, rule_id):
    findings = lint(write_tree(tmp_path, CORPUS[(rule_id, "flag")]))
    assert findings, f"{rule_id} missed its flagging fixture"
    assert all(f.rule_id == rule_id for f in findings)


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_program_rule_passes_the_clean_case(tmp_path, rule_id):
    findings = lint(write_tree(tmp_path, CORPUS[(rule_id, "clean")]))
    assert not findings, [f.render() for f in findings]


def test_program_findings_anchor_at_definition_sites(tmp_path):
    # REP014 reports at the dead constant's assignment in names.py,
    # not at any emit site.
    files = CORPUS[("REP014", "flag")]
    [finding] = lint(write_tree(tmp_path, files))
    assert finding.path == "src/repro/obs/names.py"
    line = files[finding.path].splitlines()[finding.line - 1]
    assert line.startswith("DEAD_NAME =") and finding.col == 0
    assert "engine.never_emitted" in finding.message

"""Per-rule corpus tests: each rule flags, passes, and respects noqa.

The per-file rules lint one written-out snippet; the whole-program
rules (REP009–REP014) lint a small written-out *file tree* so the
cross-file machinery — module naming, the import graph, the call
graph — is what the fixture actually exercises.
"""

from __future__ import annotations

import pytest

from repro.analysis import LintConfig, run_lint
from tests.analysis.corpus import (
    CORPUS,
    PROGRAM_CORPUS,
    PROGRAM_RULE_IDS,
    RULE_IDS,
)


def _lint_snippet(tmp_path, rule_id, source):
    target = tmp_path / "snippet.py"
    target.write_text(source, encoding="utf-8")
    config = LintConfig(
        roots=(".",), select=(rule_id,), per_path=(), baseline=None
    )
    return run_lint(tmp_path, config=config, paths=["snippet.py"])


def _lint_tree(tmp_path, rule_id, files):
    for relpath, source in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source, encoding="utf-8")
    config = LintConfig(
        roots=("src",), select=(rule_id,), per_path=(), baseline=None
    )
    return run_lint(tmp_path, config=config)


def test_corpus_covers_every_shipped_rule():
    from repro.analysis import PROGRAM_RULES_BY_ID, RULES_BY_ID

    assert RULE_IDS == sorted(RULES_BY_ID)
    assert PROGRAM_RULE_IDS == sorted(PROGRAM_RULES_BY_ID)


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_rule_flags_the_bad_case(tmp_path, rule_id):
    result = _lint_snippet(tmp_path, rule_id, CORPUS[(rule_id, "flag")])
    assert result.findings, f"{rule_id} missed its flagging fixture"
    assert all(f.rule_id == rule_id for f in result.findings)
    assert not result.suppressed


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_rule_passes_the_clean_case(tmp_path, rule_id):
    result = _lint_snippet(tmp_path, rule_id, CORPUS[(rule_id, "clean")])
    assert result.clean, [f.render() for f in result.findings]


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_rule_respects_noqa_suppression(tmp_path, rule_id):
    flagged = _lint_snippet(tmp_path, rule_id, CORPUS[(rule_id, "flag")])
    result = _lint_snippet(tmp_path, rule_id, CORPUS[(rule_id, "noqa")])
    assert result.clean, [f.render() for f in result.findings]
    # The suppression actually swallowed the same violations the flag
    # variant raises, rather than the rule going silent.
    assert len(result.suppressed) == len(flagged.findings)
    assert all(f.rule_id == rule_id for f in result.suppressed)


@pytest.mark.parametrize("rule_id", PROGRAM_RULE_IDS)
def test_program_rule_flags_the_bad_case(tmp_path, rule_id):
    result = _lint_tree(tmp_path, rule_id, PROGRAM_CORPUS[(rule_id, "flag")])
    assert result.program_ran
    assert result.findings, f"{rule_id} missed its flagging fixture"
    assert all(f.rule_id == rule_id for f in result.findings)
    assert not result.suppressed


@pytest.mark.parametrize("rule_id", PROGRAM_RULE_IDS)
def test_program_rule_passes_the_clean_case(tmp_path, rule_id):
    result = _lint_tree(tmp_path, rule_id, PROGRAM_CORPUS[(rule_id, "clean")])
    assert result.program_ran
    assert result.clean, [f.render() for f in result.findings]


@pytest.mark.parametrize("rule_id", PROGRAM_RULE_IDS)
def test_program_rule_respects_noqa_suppression(tmp_path, rule_id):
    flagged = _lint_tree(tmp_path, rule_id, PROGRAM_CORPUS[(rule_id, "flag")])
    result = _lint_tree(tmp_path, rule_id, PROGRAM_CORPUS[(rule_id, "noqa")])
    assert result.clean, [f.render() for f in result.findings]
    assert len(result.suppressed) == len(flagged.findings)
    assert all(f.rule_id == rule_id for f in result.suppressed)


def test_program_findings_anchor_at_definition_sites(tmp_path):
    # REP013 reports at the offending function's `def` line, not at
    # the wall read buried two modules away — the anchor is what noqa
    # and the baseline fingerprint key on. (The reader itself is
    # flagged at its own def, in clock.py.)
    result = _lint_tree(tmp_path, "REP013", PROGRAM_CORPUS[("REP013", "flag")])
    assert [f.path for f in result.findings] == [
        "src/repro/core/costs.py",
        "src/repro/utils/clock.py",
    ]
    finding = result.findings[0]
    assert finding.path == "src/repro/core/costs.py"
    assert finding.snippet.startswith("def chunk_cost")
    assert "time.time" in finding.message


def test_state_dict_keys_sees_a_subclass_extending_super(tmp_path):
    """REP004 checks the keys a subclass adds around a
    ``**super().state_dict()`` spread instead of skipping the class."""
    source = """\
class Child(Base):
    def state_dict(self):
        return {"mine": self.mine, **super().state_dict()}

    def load_state_dict(self, state):
        self.mine = state[%r]
        super().load_state_dict(state)
"""
    assert _lint_snippet(tmp_path, "REP004", source % "mine").clean
    skewed = _lint_snippet(tmp_path, "REP004", source % "other")
    assert len(skewed.findings) == 2  # saved-not-read + read-not-saved
    foreign = source.replace("super().state_dict()", "self.extra()")
    assert _lint_snippet(tmp_path, "REP004", foreign % "other").clean


def test_state_dict_keys_follows_a_head_state_split(tmp_path):
    """REP004 counts the keys of a same-class helper spread into
    ``state_dict`` (a log-keeping component's ``head_state``), so the
    head + log split is checked against ``load_state_dict`` as one."""
    source = """\
class Ledger:
    def head_state(self):
        return {"next": self.next, %r: self.live}

    def state_dict(self):
        return {**self.head_state(), "entries": list(self.entries)}

    def load_state_dict(self, state):
        self.next = state["next"]
        self.live = state["live"]
        self.entries = list(state["entries"])
"""
    assert _lint_snippet(tmp_path, "REP004", source % "live").clean
    skewed = _lint_snippet(tmp_path, "REP004", source % "alive")
    assert sorted(f.message for f in skewed.findings) == [
        "class Ledger: load_state_dict reads key 'live' that "
        "state_dict never saves",
        "class Ledger: state_dict saves key 'alive' that "
        "load_state_dict never reads",
    ]
    computed = source.replace('"next": self.next', "**self.more()")
    assert _lint_snippet(tmp_path, "REP004", computed % "alive").clean


def test_noqa_for_a_different_rule_does_not_suppress(tmp_path):
    source = CORPUS[("REP007", "flag")].replace(
        "except Exception:", "except Exception:  # repro: noqa[REP001]"
    )
    result = _lint_snippet(tmp_path, "REP007", source)
    assert not result.clean


def test_findings_carry_stable_fingerprints(tmp_path):
    source = CORPUS[("REP001", "flag")]
    first = _lint_snippet(tmp_path, "REP001", source)
    # Unrelated edits above the finding do not move the fingerprint.
    shifted = "# a new leading comment\n" + source
    second = _lint_snippet(tmp_path, "REP001", shifted)
    assert [f.fingerprint() for f in first.findings] == [
        f.fingerprint() for f in second.findings
    ]
    assert first.findings[0].line != second.findings[0].line

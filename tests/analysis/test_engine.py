"""Engine, config, and baseline behaviour of reprolint."""

from __future__ import annotations

import json

import pytest

from repro.analysis import (
    GLOBAL_RULES,
    ConfigError,
    LintConfig,
    default_config,
    load_baseline,
    load_config,
    run_lint,
    write_baseline,
)
from repro.analysis.engine import PARSE_ERROR_RULE
from tests.analysis.corpus import CORPUS, write_tree

#: REP012's flagging fixture: ml (layer 2) imports serving (layer 9)
#: at top level, one finding anchored at the import in trainer.py.
UPWARD = CORPUS[("REP012", "flag")]
TRAINER = "src/repro/ml/trainer.py"


def test_unknown_rule_id_is_a_config_error():
    with pytest.raises(ConfigError):
        LintConfig(select=("REP999",))


def test_syntax_error_reports_rep000(tmp_path):
    write_tree(tmp_path, {"src/broken.py": "def nope(:\n"})
    config = LintConfig(roots=("src",), select=("REP012",), baseline=None)
    result = run_lint(tmp_path, config=config)
    assert [f.rule_id for f in result.findings] == [PARSE_ERROR_RULE]


def test_missing_explicit_target_is_a_config_error(tmp_path):
    config = LintConfig(roots=(".",), baseline=None)
    with pytest.raises(ConfigError):
        run_lint(tmp_path, config=config, paths=["nothing_here.py"])


def test_excluded_paths_are_skipped(tmp_path):
    write_tree(tmp_path, UPWARD)
    config = LintConfig(roots=("src",), select=("REP012",), baseline=None)
    assert not run_lint(tmp_path, config=config).clean
    config = LintConfig(
        roots=("src",),
        select=("REP012",),
        exclude=("*/ml/*",),
        baseline=None,
    )
    result = run_lint(tmp_path, config=config)
    assert result.clean and result.files_scanned == 1


def test_baseline_filters_matching_findings_only(tmp_path):
    write_tree(tmp_path, UPWARD)
    config = LintConfig(roots=("src",), select=("REP012",), baseline=None)
    first = run_lint(tmp_path, config=config)
    assert len(first.findings) == 1
    baseline_path = tmp_path / "baseline.json"
    write_baseline(baseline_path, first.findings, reason="legacy import")
    config = LintConfig(
        roots=("src",), select=("REP012",), baseline="baseline.json"
    )
    second = run_lint(tmp_path, config=config)
    assert second.clean
    assert len(second.baselined) == 1
    # Changing the flagged line invalidates the grandfathering.
    write_tree(
        tmp_path,
        {
            TRAINER: UPWARD[TRAINER].replace(
                "from repro.serving import registry",
                "import repro.serving.registry as registry",
            )
        },
    )
    third = run_lint(tmp_path, config=config)
    assert not third.clean


def test_baseline_without_reason_is_rejected(tmp_path):
    payload = {
        "version": 1,
        "entries": [
            {"rule": "REP012", "path": "x.py", "fingerprint": "ab", "reason": ""}
        ],
    }
    target = tmp_path / "baseline.json"
    target.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ConfigError):
        load_baseline(target)


def test_malformed_baseline_is_a_config_error(tmp_path):
    target = tmp_path / "baseline.json"
    target.write_text("not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_baseline(target)
    target.write_text(json.dumps({"version": 99, "entries": []}))
    with pytest.raises(ConfigError):
        load_baseline(target)


def test_missing_baseline_file_is_empty(tmp_path):
    assert load_baseline(tmp_path / "nope.json").entries == ()


def test_load_config_round_trip(tmp_path):
    raw = {
        "roots": ["src"],
        "select": ["REP012", "REP014"],
        "exclude": ["*skip*"],
        "baseline": None,
    }
    target = tmp_path / "lint.json"
    target.write_text(json.dumps(raw), encoding="utf-8")
    config = load_config(target)
    assert config.select == ("REP012", "REP014")
    assert config.exclude == ("*skip*",)
    assert config.baseline is None


def test_load_config_rejects_unknown_fields(tmp_path):
    target = tmp_path / "lint.json"
    target.write_text(json.dumps({"rulez": []}), encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(target)
    # Per-path policies are gone; a config naming them is refused
    # like any other unknown field.
    target.write_text(json.dumps({"per_path": [{"pattern": "src/*"}]}))
    with pytest.raises(ConfigError):
        load_config(target)
    target.write_text("{broken", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(target)


def test_path_narrowing_keeps_whole_tree_model(tmp_path):
    # Linting only names.py must still build the model from the full
    # tree: the emitter of CHUNKS_PROCESSED lives in core/engine.py,
    # so only DEAD_NAME is dead — and findings anchored in files
    # outside the narrowed set are dropped from the output.
    write_tree(tmp_path, CORPUS[("REP014", "flag")])
    config = LintConfig(roots=("src",), select=("REP014",), baseline=None)
    result = run_lint(tmp_path, config=config, paths=["src/repro/obs/names.py"])
    assert [f.path for f in result.findings] == ["src/repro/obs/names.py"]
    assert [f.snippet.split()[0] for f in result.findings] == ["DEAD_NAME"]
    result = run_lint(tmp_path, config=config, paths=["src/repro/core/engine.py"])
    assert result.clean and result.files_scanned == 1


def test_baseline_applies_to_program_findings(tmp_path):
    # ml -> serving is both an upward import and, with serving -> ml,
    # a cycle: two REP012 findings, both witnessed by the import line
    # in trainer.py, so one grandfathered line covers both.
    write_tree(
        tmp_path,
        {
            **UPWARD,
            "src/repro/serving/registry.py": (
                "from repro.ml import trainer\n\nROUTES = ()\n"
            ),
        },
    )
    config = LintConfig(roots=("src",), select=("REP012",), baseline=None)
    first = run_lint(tmp_path, config=config)
    assert len(first.findings) == 2
    write_baseline(
        tmp_path / "baseline.json", first.findings, reason="legacy import"
    )
    config = LintConfig(
        roots=("src",), select=("REP012",), baseline="baseline.json"
    )
    second = run_lint(tmp_path, config=config)
    assert second.clean
    assert len(second.baselined) == 2


def test_default_config_scopes_match_the_declared_policy():
    config = default_config()
    assert config.select == GLOBAL_RULES == ("REP012", "REP014")
    assert config.roots == ("src",)

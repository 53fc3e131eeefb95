"""Engine, config, and baseline behaviour of reprolint."""

from __future__ import annotations

import json

import pytest

from repro.analysis import (
    ConfigError,
    LintConfig,
    PathPolicy,
    default_config,
    load_baseline,
    load_config,
    run_lint,
    write_baseline,
)
from repro.analysis.engine import PARSE_ERROR_RULE
from tests.analysis.corpus import CORPUS, write_tree

#: REP010's flagging fixture: one unsorted ``glob`` loop.
BAD_GLOB = CORPUS[("REP010", "flag")]["src/repro/reliability/janitor.py"]


def test_per_path_policies_scope_rules(tmp_path):
    write_tree(
        tmp_path,
        {
            "src/core/gen.py": BAD_GLOB,
            "src/util/gen.py": BAD_GLOB,
        },
    )
    config = LintConfig(
        roots=("src",),
        select=(),
        per_path=(PathPolicy("src/core/*", enable=("REP010",)),),
        baseline=None,
    )
    result = run_lint(tmp_path, config=config)
    assert [f.path for f in result.findings] == ["src/core/gen.py"]


def test_policy_disable_wins_over_select(tmp_path):
    write_tree(tmp_path, {"src/gen.py": BAD_GLOB})
    config = LintConfig(
        roots=("src",),
        select=("REP010",),
        per_path=(PathPolicy("src/gen.py", disable=("REP010",)),),
        baseline=None,
    )
    assert run_lint(tmp_path, config=config).clean


def test_unknown_rule_id_is_a_config_error():
    with pytest.raises(ConfigError):
        LintConfig(select=("REP999",))
    with pytest.raises(ConfigError):
        LintConfig(per_path=(PathPolicy("*", enable=("NOPE",)),))


def test_syntax_error_reports_rep000(tmp_path):
    write_tree(tmp_path, {"src/broken.py": "def nope(:\n"})
    config = LintConfig(roots=("src",), select=("REP010",), baseline=None)
    result = run_lint(tmp_path, config=config)
    assert [f.rule_id for f in result.findings] == [PARSE_ERROR_RULE]


def test_missing_explicit_target_is_a_config_error(tmp_path):
    config = LintConfig(roots=(".",), baseline=None)
    with pytest.raises(ConfigError):
        run_lint(tmp_path, config=config, paths=["nothing_here.py"])


def test_excluded_paths_are_skipped(tmp_path):
    write_tree(tmp_path, {"src/vendored/gen.py": BAD_GLOB})
    config = LintConfig(
        roots=("src",),
        select=("REP010",),
        exclude=("*vendored*",),
        baseline=None,
    )
    result = run_lint(tmp_path, config=config)
    assert result.clean and result.files_scanned == 0


def test_baseline_filters_matching_findings_only(tmp_path):
    write_tree(tmp_path, {"src/gen.py": BAD_GLOB})
    config = LintConfig(roots=("src",), select=("REP010",), baseline=None)
    first = run_lint(tmp_path, config=config)
    assert len(first.findings) == 1
    baseline_path = tmp_path / "baseline.json"
    write_baseline(baseline_path, first.findings, reason="legacy sweeper")
    config = LintConfig(
        roots=("src",), select=("REP010",), baseline="baseline.json"
    )
    second = run_lint(tmp_path, config=config)
    assert second.clean
    assert len(second.baselined) == 1
    # Changing the flagged line invalidates the grandfathering.
    write_tree(tmp_path, {"src/gen.py": BAD_GLOB.replace("*.tmp", "*.bak")})
    third = run_lint(tmp_path, config=config)
    assert not third.clean


def test_baseline_without_reason_is_rejected(tmp_path):
    payload = {
        "version": 1,
        "entries": [
            {"rule": "REP010", "path": "x.py", "fingerprint": "ab", "reason": ""}
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
        "select": ["REP010", "REP012"],
        "per_path": [{"pattern": "src/core/*", "enable": ["REP013"]}],
        "exclude": ["*skip*"],
        "baseline": None,
    }
    target = tmp_path / "lint.json"
    target.write_text(json.dumps(raw), encoding="utf-8")
    config = load_config(target)
    assert config.select == ("REP010", "REP012")
    assert config.rules_for_path("src/core/x.py") == (
        "REP010",
        "REP012",
        "REP013",
    )
    assert config.baseline is None


def test_load_config_rejects_unknown_fields(tmp_path):
    target = tmp_path / "lint.json"
    target.write_text(json.dumps({"rulez": []}), encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(target)
    target.write_text(json.dumps({"per_path": [{"enable": []}]}))
    with pytest.raises(ConfigError):
        load_config(target)
    target.write_text("{broken", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(target)


WALLED_TREE = {
    "src/repro/core/costs.py": (
        "from repro.utils.clock import stamp\n"
        "\n"
        "def chunk_cost(rows):\n"
        "    return stamp() * len(rows)\n"
    ),
    "src/repro/utils/clock.py": (
        "import time\n"
        "\n"
        "def stamp():\n"
        "    return time.time()\n"
    ),
}


def test_rep013_policy_disable_sanctions_chain_endpoints(tmp_path):
    write_tree(tmp_path, WALLED_TREE)
    config = LintConfig(
        roots=("src",), select=("REP013",), per_path=(), baseline=None
    )
    assert not run_lint(tmp_path, config=config).clean
    # Disabling REP013 on the clock module does more than spare its
    # own defs: it marks the module as a sanctioned wall reader, so
    # chains *through* it stop matching everywhere.
    config = LintConfig(
        roots=("src",),
        select=("REP013",),
        per_path=(PathPolicy("src/repro/utils/clock.py", disable=("REP013",)),),
        baseline=None,
    )
    assert run_lint(tmp_path, config=config).clean


def test_path_narrowing_keeps_whole_tree_model(tmp_path):
    # Linting only costs.py must still build the model from the full
    # tree (the chain ends in clock.py) — and findings anchored in
    # files outside the narrowed set are dropped from the output.
    write_tree(tmp_path, WALLED_TREE)
    config = LintConfig(
        roots=("src",), select=("REP013",), per_path=(), baseline=None
    )
    result = run_lint(
        tmp_path, config=config, paths=["src/repro/core/costs.py"]
    )
    assert [f.path for f in result.findings] == ["src/repro/core/costs.py"]
    # The reader itself is flagged in clock.py; chunk_cost's finding,
    # anchored in costs.py, is dropped.
    result = run_lint(
        tmp_path, config=config, paths=["src/repro/utils/clock.py"]
    )
    assert [f.path for f in result.findings] == ["src/repro/utils/clock.py"]


def test_baseline_applies_to_program_findings(tmp_path):
    write_tree(tmp_path, WALLED_TREE)
    config = LintConfig(
        roots=("src",), select=("REP013",), per_path=(), baseline=None
    )
    first = run_lint(tmp_path, config=config)
    assert len(first.findings) == 2
    write_baseline(
        tmp_path / "baseline.json", first.findings, reason="legacy wall read"
    )
    config = LintConfig(
        roots=("src",),
        select=("REP013",),
        per_path=(),
        baseline="baseline.json",
    )
    second = run_lint(tmp_path, config=config)
    assert second.clean
    assert len(second.baselined) == 2


def test_default_config_scopes_match_the_declared_policy():
    config = default_config()
    assert "REP013" in config.rules_for_path("src/repro/core/scheduler.py")
    assert "REP013" in config.rules_for_path("src/repro/execution/cost.py")
    assert "REP013" not in config.rules_for_path("src/repro/obs/trace.py")
    assert "REP010" in config.rules_for_path("src/repro/reliability/runtime.py")
    assert "REP010" in config.rules_for_path("src/repro/ml/sgd.py")
    assert "REP010" not in config.rules_for_path("src/repro/serving/registry.py")
    assert "REP012" in config.rules_for_path("src/repro/utils/fileio.py")

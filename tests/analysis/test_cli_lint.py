"""The ``repro lint`` CLI contract: exit codes 0/1/2, JSON output, baselines."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from tests.analysis.corpus import CORPUS, write_tree


@pytest.fixture
def clean_tree(tmp_path):
    return write_tree(tmp_path, CORPUS[("REP012", "clean")])


@pytest.fixture
def dirty_tree(tmp_path):
    return write_tree(tmp_path, CORPUS[("REP012", "flag")])


def _config_file(tmp_path, **overrides):
    payload = {
        "roots": ["src"],
        "select": ["REP012"],
        "baseline": None,
    }
    payload.update(overrides)
    target = tmp_path / "lint.json"
    target.write_text(json.dumps(payload), encoding="utf-8")
    return str(target)


def test_exit_zero_on_clean_tree(clean_tree, capsys):
    code = main(
        [
            "lint",
            "--root",
            str(clean_tree),
            "--config",
            _config_file(clean_tree),
        ]
    )
    assert code == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_exit_one_on_findings(dirty_tree, capsys):
    code = main(
        [
            "lint",
            "--root",
            str(dirty_tree),
            "--config",
            _config_file(dirty_tree),
        ]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "REP012" in out and "trainer.py" in out


def test_exit_two_on_config_error(dirty_tree, capsys):
    broken = dirty_tree / "lint.json"
    broken.write_text(json.dumps({"select": ["REP999"]}), encoding="utf-8")
    code = main(["lint", "--root", str(dirty_tree), "--config", str(broken)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_json_format_reports_machine_readable_findings(dirty_tree, capsys):
    code = main(
        [
            "lint",
            "--root",
            str(dirty_tree),
            "--config",
            _config_file(dirty_tree),
            "--format",
            "json",
        ]
    )
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["clean"] is False
    assert payload["findings"][0]["rule"] == "REP012"


def test_update_baseline_then_relint_is_clean(dirty_tree, capsys):
    config = _config_file(dirty_tree, baseline="baseline.json")
    code = main(
        [
            "lint",
            "--root",
            str(dirty_tree),
            "--config",
            config,
            "--update-baseline",
        ]
    )
    assert code == 0
    assert "grandfathered" in capsys.readouterr().out
    written = json.loads(
        (dirty_tree / "baseline.json").read_text(encoding="utf-8")
    )
    assert written["entries"] and written["entries"][0]["rule"] == "REP012"
    assert main(["lint", "--root", str(dirty_tree), "--config", config]) == 0


def test_select_overrides_configured_rules(dirty_tree):
    config = _config_file(dirty_tree)
    code = main(
        [
            "lint",
            "--root",
            str(dirty_tree),
            "--config",
            config,
            "--select",
            "REP014",
        ]
    )
    assert code == 0


def test_list_rules_documents_all_rules(capsys):
    from repro.analysis import PROGRAM_RULES_BY_ID

    assert main(["lint", "--list-rules"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [row.split()[0] for row in rows] == sorted(PROGRAM_RULES_BY_ID)

"""The ``repro lint`` CLI contract: it lints ``./src`` and exits 0/1/2."""

from __future__ import annotations

import pytest

from repro.cli import main
from tests.analysis.corpus import CORPUS, write_tree


@pytest.fixture
def clean_tree(tmp_path, monkeypatch):
    monkeypatch.chdir(write_tree(tmp_path, CORPUS[("REP012", "clean")]))
    return tmp_path


@pytest.fixture
def dirty_tree(tmp_path, monkeypatch):
    monkeypatch.chdir(write_tree(tmp_path, CORPUS[("REP012", "flag")]))
    return tmp_path


def test_exit_zero_on_clean_tree(clean_tree, capsys):
    assert main(["lint"]) == 0
    assert capsys.readouterr().out == "0 finding(s) in 2 file(s)\n"


def test_exit_one_on_findings(dirty_tree, capsys):
    assert main(["lint"]) == 1
    first, summary = capsys.readouterr().out.splitlines()
    assert first.startswith("src/repro/ml/trainer.py:1:1: REP012 ")
    assert summary == "1 finding(s) in 2 file(s)"


def test_exit_two_on_config_error(tmp_path, monkeypatch, capsys):
    # The one configuration left to get wrong: where it runs. Without
    # ./src an empty scan would pass as clean, so it exits 2.
    monkeypatch.chdir(tmp_path)
    assert main(["lint"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no src/ directory" in captured.err

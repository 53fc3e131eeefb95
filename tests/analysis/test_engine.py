"""The lint pass itself: parse failures and a missing tree."""

from __future__ import annotations

import pytest

from repro.analysis import lint
from tests.analysis.corpus import write_tree


def test_syntax_error_reports_rep000(tmp_path):
    write_tree(tmp_path, {"src/broken.py": "def nope(:\n"})
    [finding] = lint(tmp_path)
    assert (finding.rule_id, finding.path, finding.line) == (
        "REP000", "src/broken.py", 1,
    )
    assert finding.message.startswith("file does not parse: ")


def test_missing_explicit_target_is_a_config_error(tmp_path):
    # No src/ to lint is an error, never an empty, clean result.
    with pytest.raises(FileNotFoundError):
        lint(tmp_path)

"""The live ``src/`` tree must be clean under both checks.

This is the contract ``make lint`` and the CI ``lint`` job enforce;
keeping a copy in the tier-1 suite means a violation fails locally
before it ever reaches CI.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import lint, source_files

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_src_tree_is_clean_under_shipped_config():
    assert len(source_files(REPO_ROOT)) > 50
    findings = lint(REPO_ROOT)
    assert not findings, "\n".join(f.render() for f in findings)

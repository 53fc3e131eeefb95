"""The live ``src/`` tree must be clean under the shipped configuration.

This is the contract the ``lint-invariants`` CI job enforces; keeping a
copy in the tier-1 suite means a violation fails locally before it ever
reaches CI.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import default_config, load_baseline, run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_src_tree_is_clean_under_shipped_config():
    result = run_lint(REPO_ROOT, config=default_config())
    assert result.files_scanned > 50
    assert result.clean, "\n".join(f.render() for f in result.findings)


def test_shipped_baseline_is_tiny_and_justified():
    # The issue's bar: fix true positives rather than grandfathering
    # them. Every entry needs a one-line justification; the list is
    # expected to trend back to zero, so cap it hard.
    baseline = load_baseline(REPO_ROOT / "reprolint-baseline.json")
    assert len(baseline.entries) <= 2
    for entry in baseline.entries:
        assert entry.reason.strip(), entry
        assert len(entry.reason) >= 20, entry
    # ...and every committed entry must still match a live finding —
    # stale fingerprints mean the flagged code changed and the entry
    # must be deleted (or the finding re-fixed).
    result = run_lint(REPO_ROOT, config=default_config())
    matched = {f.fingerprint() for f in result.baselined}
    for entry in baseline.entries:
        assert entry.fingerprint in matched, (
            f"stale baseline entry: {entry}"
        )

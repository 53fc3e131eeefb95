"""The reprolint fixture corpus.

One (flagging, clean) pair per check, kept as strings so the
deliberately-bad fixture code never reaches the general linters
(ruff/pyflakes) that sweep ``tests/``. The checks reason over the
whole program (DESIGN.md §14), so each variant is a *file tree*
(repo-relative path -> source) that the harness writes under a temp
root and lints whole; each tree trips at most its own check.
"""

from __future__ import annotations

from textwrap import dedent
from typing import Dict, Tuple

#: (rule id, variant) -> {relpath: source}. Variants: flag / clean.
#: Paths follow the ``src/repro/<subsystem>/...`` layout so the
#: program model's module naming and subsystem mapping apply.
CORPUS: Dict[Tuple[str, str], Dict[str, str]] = {}


def write_tree(root, files):
    """Write ``{relpath: source}`` under ``root``; returns ``root``."""
    for relpath, source in files.items():
        target = root / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source, encoding="utf-8")
    return root


def _add(rule: str, flag: Dict[str, str], clean: Dict[str, str]) -> None:
    CORPUS[(rule, "flag")] = {
        path: dedent(source) for path, source in flag.items()
    }
    CORPUS[(rule, "clean")] = {
        path: dedent(source) for path, source in clean.items()
    }


_add(
    "REP012",
    # ml (layer 2) importing serving (layer 9) points *up* the table.
    flag={
        "src/repro/ml/trainer.py": """\
        from repro.serving import registry

        def train():
            return registry.ROUTES
        """,
        "src/repro/serving/registry.py": """\
        ROUTES = ()
        """,
    },
    # The reverse direction points strictly down and is legal.
    clean={
        "src/repro/ml/trainer.py": """\
        def train():
            return ()
        """,
        "src/repro/serving/registry.py": """\
        from repro.ml import trainer

        def routes():
            return trainer.train()
        """,
    },
)

_add(
    "REP014",
    # DEAD_NAME is declared in the vocabulary but nothing emits it.
    flag={
        "src/repro/obs/names.py": """\
        CHUNKS_PROCESSED = "engine.chunks_processed"
        DEAD_NAME = "engine.never_emitted"
        """,
        "src/repro/core/engine.py": """\
        from repro.obs import names

        def run(metrics):
            metrics.counter(names.CHUNKS_PROCESSED).inc()
        """,
    },
    # Live via constant reference AND via raw string value; the
    # trailing-dot prefix constant is a wildcard family and exempt.
    clean={
        "src/repro/obs/names.py": """\
        CHUNKS_PROCESSED = "engine.chunks_processed"
        ROWS_SEEN = "engine.rows_seen"
        ENGINE_PREFIX = "engine."
        """,
        "src/repro/core/engine.py": """\
        from repro.obs import names

        def run(metrics):
            metrics.counter(names.CHUNKS_PROCESSED).inc()
            metrics.gauge("engine.rows_seen").set(0)
        """,
    },
)

#: Rule ids covered by the corpus.
RULE_IDS = sorted({rule for rule, _ in CORPUS})

"""Unit tests of the whole-program model (DESIGN.md §14).

Each test builds a :class:`ProgramModel` from in-memory sources and
probes one layer directly — module naming, alias promotion, reference
resolution and the import graph — independent of any check; the
cycle test goes through ``check_layering``, since REP012 owns the
search.
"""

from __future__ import annotations

import ast
from textwrap import dedent

from repro.analysis import ParsedModule, ProgramModel, check_layering
from repro.analysis.program import module_name_for, subsystem_of


def _build(files):
    return ProgramModel.build([
        ParsedModule(relpath, ast.parse(dedent(source)))
        for relpath, source in sorted(files.items())
    ])


def test_module_naming_and_subsystems():
    assert (
        module_name_for("src/repro/execution/engine.py")
        == "repro.execution.engine"
    )
    assert module_name_for("src/repro/obs/__init__.py") == "repro.obs"
    assert module_name_for("snippet.py") == "snippet"
    assert subsystem_of("repro.execution.engine") == "execution"
    assert subsystem_of("repro.cli") == "cli"
    assert subsystem_of("snippet") == "snippet"


def test_submodule_alias_promotion_and_attr_refs():
    # `from repro.obs import names` binds the *submodule* when one
    # exists; the scanner records it as a member alias and the build
    # promotes it, so `names.FOO` resolves to a module attribute ref.
    model = _build(
        {
            "src/repro/obs/names.py": """\
            FOO = "engine.foo"
            """,
            "src/repro/core/engine.py": """\
            from repro.obs import names

            def run(metrics):
                metrics.counter(names.FOO).inc()
            """,
        }
    )
    engine = model.modules["repro.core.engine"]
    assert engine.module_aliases["names"] == "repro.obs.names"
    assert "names" not in engine.member_aliases
    assert ("repro.obs.names", "FOO") in engine.attr_refs


def test_member_alias_stays_member_when_target_is_not_a_module():
    model = _build(
        {
            "src/repro/obs/metrics.py": """\
            class MetricsRegistry:
                def __init__(self):
                    self.series = {}
            """,
            "src/repro/core/engine.py": """\
            from repro.obs.metrics import MetricsRegistry

            def make():
                return MetricsRegistry()
            """,
        }
    )
    engine = model.modules["repro.core.engine"]
    assert engine.member_aliases["MetricsRegistry"] == (
        "repro.obs.metrics",
        "MetricsRegistry",
    )
    assert ("repro.obs.metrics", "MetricsRegistry") in engine.attr_refs


def test_resolve_module_longest_prefix():
    model = _build(
        {
            "src/repro/obs/__init__.py": "",
            "src/repro/obs/names.py": "FOO = 'a.b'\n",
        }
    )
    assert model.resolve_module("repro.obs.names") == "repro.obs.names"
    assert model.resolve_module("repro.obs.names.FOO") == "repro.obs.names"
    assert model.resolve_module("repro.obs.metrics") == "repro.obs"
    assert model.resolve_module("numpy.random") is None


def _cycle_findings(files):
    return [
        f for f in check_layering(_build(files)) if "cycle" in f.message
    ]


def test_subsystem_cycle_detection():
    acyclic = {
        "src/repro/serving/registry.py": "from repro.ml import trainer\n",
        "src/repro/ml/trainer.py": "def train():\n    return ()\n",
    }
    assert _cycle_findings(acyclic) == []

    cyclic = {
        "src/repro/serving/registry.py": "from repro.ml import trainer\n",
        "src/repro/ml/trainer.py": "from repro.serving import registry\n",
    }
    [finding] = _cycle_findings(cyclic)
    assert "ml -> serving -> ml" in finding.message
    assert finding.path == "src/repro/ml/trainer.py"


def test_deferred_and_type_checking_import_classification():
    model = _build(
        {
            "src/repro/core/engine.py": """\
            from typing import TYPE_CHECKING

            if TYPE_CHECKING:
                from repro.serving import registry

            def promote():
                from repro.ml import trainer

                return trainer.train()
            """,
            "src/repro/serving/registry.py": "",
            "src/repro/ml/trainer.py": """\
            def train():
                return ()
            """,
        }
    )
    edges = {
        edge.target: edge
        for edge in model.modules["repro.core.engine"].imports
    }
    assert edges["repro.serving.registry"].type_checking
    assert edges["repro.ml.trainer"].deferred
    assert not edges["repro.ml.trainer"].type_checking

    # Neither contributes a top-level subsystem witness edge.
    assert "core" not in model.subsystem_graph or not model.subsystem_graph[
        "core"
    ]


def test_relative_imports_resolve_against_the_package():
    model = _build(
        {
            "src/repro/obs/__init__.py": """\
            from .names import FOO
            """,
            "src/repro/obs/names.py": "FOO = 'a.b'\n",
        }
    )
    targets = {
        edge.target for edge in model.modules["repro.obs"].imports
    }
    assert "repro.obs.names.FOO" in targets
    assert model.resolve_module("repro.obs.names.FOO") == "repro.obs.names"

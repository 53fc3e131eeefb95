"""Unit tests of the whole-program model (DESIGN.md §14).

Each test builds a :class:`ProgramModel` from in-memory sources and
probes one layer directly — module naming, alias promotion, symbol
resolution, the import graphs, and the conservative call graph —
independent of any lint rule.
"""

from __future__ import annotations

import ast
from pathlib import Path
from textwrap import dedent

from repro.analysis.base import ParsedModule
from repro.analysis.program import (
    ProgramModel,
    is_mutable_value,
    module_name_for,
    subsystem_of,
)


def _build(files):
    parsed = []
    for relpath, source in sorted(files.items()):
        source = dedent(source)
        parsed.append(
            ParsedModule(
                path=Path(relpath),
                relpath=relpath,
                source=source,
                tree=ast.parse(source),
                lines=source.splitlines(),
                suppressions={},
            )
        )
    return ProgramModel.build(parsed)


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


def test_mutability_verdicts():
    def value(expr):
        return ast.parse(expr, mode="eval").body

    assert is_mutable_value(value("[]"))
    assert is_mutable_value(value("{'a': 1}"))
    assert is_mutable_value(value("collections.defaultdict(list)"))
    assert not is_mutable_value(value("(1, 2)"))
    assert not is_mutable_value(value("frozenset({1})"))


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
    # ...and the call to the class resolves to its __init__.
    callees = model.call_graph["repro.core.engine.make"]
    assert callees == frozenset(
        {"repro.obs.metrics.MetricsRegistry.__init__"}
    )


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


def test_call_chain_closure_and_skip():
    model = _build(
        {
            "src/repro/core/costs.py": """\
            from repro.utils.clock import stamp

            def chunk_cost(rows):
                return stamp() * len(rows)

            def total(chunks):
                return sum(chunk_cost(c) for c in chunks)
            """,
            "src/repro/utils/clock.py": """\
            import time

            def stamp():
                return tick() + 1

            def tick():
                return time.time()
            """,
        }
    )

    def reads_wall(qualname):
        return bool(model.functions[qualname].wall_reads)

    # total -> chunk_cost -> stamp -> tick, across modules, via the
    # from-import alias and plain same-module names.
    chain = model.call_chain_to("repro.core.costs.total", reads_wall)
    assert chain == [
        "repro.core.costs.total",
        "repro.core.costs.chunk_cost",
        "repro.utils.clock.stamp",
        "repro.utils.clock.tick",
    ]
    # Skipped functions neither match nor propagate: pruning `stamp`
    # severs the only route to the wall read.
    chain = model.call_chain_to(
        "repro.core.costs.total",
        reads_wall,
        skip=lambda q: q.endswith(".stamp"),
    )
    assert chain is None


def test_wall_reads_through_aliases():
    model = _build(
        {
            "src/repro/utils/clock.py": """\
            import time as _time
            from time import perf_counter
            from datetime import datetime

            def a():
                return _time.monotonic()

            def b():
                return perf_counter()

            def c():
                return datetime.now()

            def d():
                return len("no clock here")
            """,
        }
    )
    funcs = model.modules["repro.utils.clock"].functions
    reads = {
        f.name: [name for _, name in f.wall_reads] for f in funcs.values()
    }
    assert reads == {
        "a": ["_time.monotonic"],
        "b": ["perf_counter"],
        "c": ["datetime.now"],
        "d": [],
    }


def test_subsystem_cycle_detection():
    acyclic = _build(
        {
            "src/repro/serving/registry.py": """\
            from repro.ml import trainer
            """,
            "src/repro/ml/trainer.py": """\
            def train():
                return ()
            """,
        }
    )
    assert acyclic.find_subsystem_cycle() is None

    cyclic = _build(
        {
            "src/repro/serving/registry.py": """\
            from repro.ml import trainer
            """,
            "src/repro/ml/trainer.py": """\
            from repro.serving import registry
            """,
        }
    )
    cycle = cyclic.find_subsystem_cycle()
    assert cycle is not None
    assert cycle[0] == cycle[-1]
    assert set(cycle) == {"ml", "serving"}


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


def test_checkpoint_surface_extraction():
    model = _build(
        {
            "src/repro/core/cursor.py": """\
            class Cursor:
                def __init__(self):
                    self.rows = []
                    self.position = 0

                def state_dict(self):
                    return {"position": self.position}
            """,
        }
    )
    cls = model.modules["repro.core.cursor"].classes["Cursor"]
    assert set(cls.mutable_attrs) == {"rows"}
    assert cls.self_refs["state_dict"] == {"position"}
    assert cls.state_dict_keys == frozenset({"position"})

"""reprolint's two checks and the one pass that runs them.

Each check is a function of the
:class:`~repro.analysis.program.ProgramModel` that returns its
findings, anchored at the *definition site* the developer can fix:
the import statement, the constant's assignment (DESIGN.md §9, §14).

* ``REP012`` (:func:`check_layering`) — the subsystem import graph
  respects :data:`LAYERS` and has no cycle;
* ``REP014`` (:func:`check_dead_telemetry`) — every name declared in
  ``repro.obs.names`` is emitted or referenced somewhere.

:func:`lint` parses ``root/src``, builds the model and runs both; a
file that fails to parse is a ``REP000`` finding, since broken source
can't certify any invariant.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Set

from repro.analysis.program import ParsedModule, ProgramModel

#: Layer number per subsystem; top-level imports must go strictly down.
LAYERS: Dict[str, int] = {
    "exceptions": 0,
    "utils": 1,
    "obs": 2,
    "ml": 2,
    "data": 3,
    "pipeline": 4,
    "io": 4,
    "datasets": 5,
    "persistence": 5,
    "execution": 5,
    "reliability": 6,
    "core": 7,
    "driftdetect": 8,
    "serving": 9,
    "traffic": 10,
    "fleet": 11,
    "analysis": 12,
    "experiments": 12,
    "evaluation": 13,
    "cli": 14,
    "repro": 15,
    "__main__": 16,
}

#: Leaf constants modules importable from any layer.
VOCABULARY_MODULES = frozenset({"repro.obs.names", "repro.reliability.sites"})

#: The committed telemetry vocabulary REP014 audits.
NAMES_MODULE = "repro.obs.names"

#: Full dotted ``subsystem.event`` telemetry names only.
_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$")


@dataclass(frozen=True)
class Finding:
    """One violation at one source location."""

    rule_id: str
    path: str  # repo-relative posix path
    line: int  # 1-based
    col: int  # 0-based, as ast reports it
    message: str

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col + 1}: "
            f"{self.rule_id} {self.message}"
        )


def _at(model: ProgramModel, edge, message: str) -> Finding:
    """A REP012 finding anchored at an import edge's statement."""
    return Finding(
        "REP012", model.modules[edge.importer].relpath, edge.lineno,
        edge.col, message,
    )


def check_layering(model: ProgramModel) -> List[Finding]:
    """REP012 — top-level imports point strictly down :data:`LAYERS`.

    Deferred (function-local) and ``TYPE_CHECKING`` imports are exempt
    — the sanctioned escape hatches. The vocabulary modules are
    importable from anywhere but must themselves stay leaves. Cycle
    detection runs on the same filtered edges and names the witness
    edge, catching cycles through subsystems the table does not rank.
    """
    findings: List[Finding] = []
    for mod_name in sorted(VOCABULARY_MODULES):
        info = model.modules.get(mod_name)
        if info is None:
            continue
        for edge in info.imports:
            if not (edge.type_checking or edge.deferred):
                findings.append(_at(
                    model, edge,
                    f"vocabulary module {mod_name} imports "
                    f"{edge.target}; it is layering-exempt only "
                    f"while it remains a stdlib-only leaf",
                ))
    # Cross-subsystem witness edges, vocabulary targets dropped.
    filtered: Dict[str, Dict[str, list]] = {}
    for src, targets in model.subsystem_graph.items():
        for dst, edges in targets.items():
            if dst == src:
                continue
            witnesses = [
                edge for edge in edges
                if model.resolve_module(edge.target) not in VOCABULARY_MODULES
            ]
            if witnesses:
                filtered.setdefault(src, {})[dst] = witnesses
    for src in sorted(filtered):
        for dst in sorted(filtered[src]):
            src_layer, dst_layer = LAYERS.get(src), LAYERS.get(dst)
            if src_layer is None or dst_layer is None:
                continue
            if src_layer <= dst_layer:
                findings.append(_at(
                    model, filtered[src][dst][0],
                    f"layering violation: `{src}` (layer {src_layer}) "
                    f"imports `{dst}` (layer {dst_layer}) at top level; "
                    f"imports must point strictly down the table — "
                    f"defer the import into the function that needs it "
                    f"or move the shared code below both",
                ))
    cycle = _find_cycle(filtered)
    if cycle is not None:
        findings.append(_at(
            model, filtered[cycle[0]][cycle[1]][0],
            f"subsystem import cycle: {' -> '.join(cycle)} "
            f"(edge `{cycle[0]}` -> `{cycle[1]}` witnessed here)",
        ))
    return findings


def _find_cycle(graph: Dict[str, Dict[str, list]]) -> Optional[List[str]]:
    """The first cycle a sorted depth-first search meets, closed on
    its start node (``[a, b, a]``), or ``None``."""
    done: Set[str] = set()
    stack: List[str] = []

    def visit(node: str) -> Optional[List[str]]:
        stack.append(node)
        for succ in sorted(graph.get(node, ())):
            if succ in stack:
                return stack[stack.index(succ):] + [succ]
            if succ not in done:
                found = visit(succ)
                if found is not None:
                    return found
        stack.pop()
        done.add(node)
        return None

    for node in sorted(graph):
        if node not in done:
            found = visit(node)
            if found is not None:
                return found
    return None


def check_dead_telemetry(model: ProgramModel) -> List[Finding]:
    """REP014 — every declared telemetry name is emitted somewhere.

    A full dotted constant in ``repro.obs.names`` is live when another
    module passes its value as the first argument of a method call
    (``counter.inc(...)``, ``telemetry.emit(...)``) or references the
    constant itself (``names.CHUNKS_PROCESSED``, ``from ... import
    CHUNKS_PROCESSED``). Prefix constants (values ending in ``.``) are
    wildcard families and exempt.
    """
    info = model.modules.get(NAMES_MODULE)
    if info is None:
        return []
    used_values: Set[str] = set()
    used_consts: Set[str] = set()
    for mod_name, other in model.modules.items():
        if mod_name == NAMES_MODULE:
            continue
        used_values |= other.call_str_args
        used_consts |= {
            attr for module, attr in other.attr_refs if module == NAMES_MODULE
        }
    findings: List[Finding] = []
    for const in sorted(info.string_constants):
        value, node = info.string_constants[const]
        if not _NAME_RE.match(value):
            continue
        if const in used_consts or value in used_values:
            continue
        findings.append(Finding(
            "REP014", info.relpath, node.lineno, node.col_offset,
            f"telemetry name `{const}` (\"{value}\") is declared "
            f"but no live code emits or references it; delete it "
            f"or wire up the emission",
        ))
    return findings


def source_files(root: Path) -> List[Path]:
    """Every ``.py`` file under ``root/src``, sorted.

    A missing ``src/`` raises :class:`FileNotFoundError`: an empty
    scan must never pass as a clean one.
    """
    src = root / "src"
    if not src.is_dir():
        raise FileNotFoundError(f"no src/ directory under {root}")
    return sorted(src.rglob("*.py"))


def lint(root: Path) -> List[Finding]:
    """Both checks over ``root/src``, plus ``REP000`` for each file
    that does not parse; sorted by location."""
    findings: List[Finding] = []
    modules: List[ParsedModule] = []
    for path in source_files(root):
        relpath = path.relative_to(root).as_posix()
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        except SyntaxError as error:
            findings.append(Finding(
                "REP000", relpath, error.lineno or 1,
                (error.offset or 1) - 1,
                f"file does not parse: {error.msg}",
            ))
            continue
        modules.append(ParsedModule(relpath, tree))
    model = ProgramModel.build(modules)
    findings += check_layering(model) + check_dead_telemetry(model)
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule_id))

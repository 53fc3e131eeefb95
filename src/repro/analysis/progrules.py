"""The rule pack: REP012 (layering) and REP014 (dead telemetry).

The rules run against the :class:`~repro.analysis.program.ProgramModel`
built from every parsed module in the tree (see DESIGN.md §14). They
certify the two cross-file invariants no behaviour test can see: an
acyclic subsystem layering and a live telemetry vocabulary.

A :class:`ProgramRule` receives the model plus a
:class:`ProgramReporter` and anchors every finding at its *definition
site*: the import statement, the constant's assignment. The content
fingerprint hashes that line, and ``# repro: noqa[...]`` on it
suppresses the finding.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.base import Finding
from repro.analysis.program import ModuleInfo, ProgramModel


class ProgramReporter:
    """Collects one program rule's findings, applying noqa.

    ``report`` routes a finding to ``suppressed`` when its line
    carries a matching ``# repro: noqa`` comment.
    """

    def __init__(self, rule_id: str) -> None:
        self.rule_id = rule_id
        self.findings: List[Finding] = []
        self.suppressed: List[Finding] = []

    def report(
        self, module: ModuleInfo, lineno: int, col: int, message: str
    ) -> None:
        finding = Finding(
            rule_id=self.rule_id,
            path=module.relpath,
            line=lineno,
            col=col,
            message=message,
            snippet=module.parsed.line_text(lineno),
        )
        if module.parsed.is_suppressed(self.rule_id, lineno):
            self.suppressed.append(finding)
        else:
            self.findings.append(finding)


class ProgramRule:
    """Base class of the whole-program rule protocol.

    Subclasses set the identity attributes and implement
    ``check(model, reporter)``, emitting findings through the
    reporter. Rules must iterate the model in sorted order so output
    is deterministic.
    """

    rule_id: str = ""
    name: str = ""
    description: str = ""

    def check(self, model: ProgramModel, reporter: ProgramReporter) -> None:
        raise NotImplementedError


class LayeringRule(ProgramRule):
    """REP012 — the subsystem import graph must respect the layering.

    Each ``repro.<subsystem>`` has a layer number (low = foundational);
    a top-level runtime import must always point strictly *down* the
    table, which makes the graph a DAG by construction. Deferred
    (function-local) and ``TYPE_CHECKING`` imports are exempt — they
    are the sanctioned escape hatches. The two vocabulary modules
    (telemetry names, fault sites) are importable from anywhere but
    must themselves remain leaves. Cycle detection runs on the same
    filtered edge set and names the offending edge, catching cycles
    routed through subsystems the table does not rank yet.
    """

    rule_id = "REP012"
    name = "layering"
    description = (
        "top-level imports must respect the subsystem layer table "
        "(core/ml never import serving/fleet/traffic); no cycles"
    )

    #: Layer number per subsystem; imports must go strictly downward.
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
    VOCABULARY_MODULES = frozenset(
        {"repro.obs.names", "repro.reliability.sites"}
    )

    def check(self, model: ProgramModel, reporter: ProgramReporter) -> None:
        self._check_vocabulary_leaves(model, reporter)
        filtered = self._filtered_edges(model)
        for src in sorted(filtered):
            for dst in sorted(filtered[src]):
                edge = filtered[src][dst][0]
                src_layer = self.LAYERS.get(src)
                dst_layer = self.LAYERS.get(dst)
                if src_layer is None or dst_layer is None:
                    continue
                if src_layer <= dst_layer:
                    reporter.report(
                        model.modules[edge.importer],
                        edge.lineno,
                        edge.col,
                        f"layering violation: `{src}` (layer "
                        f"{src_layer}) imports `{dst}` (layer "
                        f"{dst_layer}) at top level; imports must "
                        f"point strictly down the table — defer the "
                        f"import into the function that needs it or "
                        f"move the shared code below both",
                    )
        self._check_cycles(model, filtered, reporter)

    def _check_vocabulary_leaves(
        self, model: ProgramModel, reporter: ProgramReporter
    ) -> None:
        for mod_name in sorted(self.VOCABULARY_MODULES):
            info = model.modules.get(mod_name)
            if info is None:
                continue
            for edge in info.imports:
                if edge.type_checking or edge.deferred:
                    continue
                reporter.report(
                    info,
                    edge.lineno,
                    edge.col,
                    f"vocabulary module {mod_name} imports "
                    f"{edge.target}; it is layering-exempt only "
                    f"while it remains a stdlib-only leaf",
                )

    def _filtered_edges(self, model: ProgramModel):
        """Cross-subsystem witness edges, vocabulary targets dropped."""
        filtered: Dict[str, Dict[str, List]] = {}
        for src, targets in model.subsystem_graph.items():
            for dst, edges in targets.items():
                if dst == src:
                    continue
                witnesses = [
                    edge
                    for edge in edges
                    if model.resolve_module(edge.target)
                    not in self.VOCABULARY_MODULES
                ]
                if witnesses:
                    filtered.setdefault(src, {})[dst] = witnesses
        return filtered

    def _check_cycles(
        self, model: ProgramModel, filtered, reporter: ProgramReporter
    ) -> None:
        WHITE, GREY, BLACK = 0, 1, 2
        color = {node: WHITE for node in filtered}
        stack: List[str] = []

        def dfs(node: str) -> Optional[List[str]]:
            color[node] = GREY
            stack.append(node)
            for succ in sorted(filtered.get(node, ())):
                if succ not in color:
                    color[succ] = WHITE
                if color[succ] == GREY:
                    return stack[stack.index(succ):] + [succ]
                if color[succ] == WHITE:
                    found = dfs(succ)
                    if found is not None:
                        return found
            stack.pop()
            color[node] = BLACK
            return None

        cycle: Optional[List[str]] = None
        for node in sorted(filtered):
            if color[node] == WHITE:
                cycle = dfs(node)
                if cycle is not None:
                    break
        if cycle is None:
            return
        edge = filtered[cycle[0]][cycle[1]][0]
        reporter.report(
            model.modules[edge.importer],
            edge.lineno,
            edge.col,
            f"subsystem import cycle: {' -> '.join(cycle)} "
            f"(edge `{cycle[0]}` -> `{cycle[1]}` witnessed here)",
        )


class DeadTelemetryRule(ProgramRule):
    """REP014 — every declared telemetry name is emitted somewhere.

    The committed vocabulary (``repro.obs.names``) names every event
    the platform emits; a name declared but never emitted accumulates
    silently. A constant counts as live when any other module passes
    its string value as the first argument of a method call
    (``counter.inc(...)``, ``telemetry.emit(...)``) or references the
    constant itself (``names.CHUNKS_PROCESSED``, ``from ... import
    CHUNKS_PROCESSED``).
    Prefix constants (values ending in ``.``) are wildcard families
    and exempt.
    """

    rule_id = "REP014"
    name = "dead-telemetry"
    description = (
        "names declared in obs/names.py must be emitted or "
        "referenced by live code"
    )

    NAMES_MODULE = "repro.obs.names"

    #: Full dotted ``subsystem.event`` telemetry names only.
    _NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$")

    def check(self, model: ProgramModel, reporter: ProgramReporter) -> None:
        info = model.modules.get(self.NAMES_MODULE)
        if info is None:
            return
        declared = {
            const: (value, node)
            for const, (value, node) in info.string_constants.items()
            if self._NAME_RE.match(value)
        }
        if not declared:
            return
        used_values: Set[str] = set()
        used_consts: Set[str] = set()
        for mod_name, other in model.modules.items():
            if mod_name == self.NAMES_MODULE:
                continue
            used_values |= other.call_str_args
            for module, attr in other.attr_refs:
                if module == self.NAMES_MODULE:
                    used_consts.add(attr)
        for const in sorted(declared):
            value, node = declared[const]
            if const in used_consts or value in used_values:
                continue
            reporter.report(
                info,
                node.lineno,
                node.col_offset,
                f"telemetry name `{const}` (\"{value}\") is declared "
                f"but no live code emits or references it; delete it "
                f"or wire up the emission",
            )


#: Every shipped program rule, in id order.
PROGRAM_RULES: Tuple[ProgramRule, ...] = (
    LayeringRule(),
    DeadTelemetryRule(),
)

PROGRAM_RULES_BY_ID: Dict[str, ProgramRule] = {
    rule.rule_id: rule for rule in PROGRAM_RULES
}


def program_rules_for(ids: Sequence[str]) -> Tuple[ProgramRule, ...]:
    """The rules among ``ids``, in id order (the config has already
    refused unknown ids)."""
    wanted = set(ids)
    return tuple(r for r in PROGRAM_RULES if r.rule_id in wanted)

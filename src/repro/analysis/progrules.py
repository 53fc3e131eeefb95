"""The rule pack: REP009, REP010, REP012, REP013, REP014.

The rules run against the :class:`~repro.analysis.program.ProgramModel`
built from every parsed module in the tree (see DESIGN.md §14). They
certify the cross-file invariants replay depends on — complete
checkpoints, deterministic iteration, an acyclic subsystem layering,
no wall-clock reachable from cost paths, and a live telemetry
vocabulary.

A :class:`ProgramRule` receives the model plus a
:class:`ProgramReporter` and anchors every finding at its *definition
site*: the attribute assignment, the import statement, the ``def``
line. The content fingerprint hashes that line, ``# repro: noqa[...]``
on it suppresses the finding, and per-path config policies scope each
rule by the file the definition lives in.
"""

from __future__ import annotations

import ast
import re
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.base import Finding
from repro.analysis.program import ModuleInfo, ProgramModel, dotted_name

if TYPE_CHECKING:  # config imports this module; avoid the cycle.
    from repro.analysis.config import LintConfig


class ProgramReporter:
    """Collects one program rule's findings, applying noqa + policy.

    Definition-site semantics: ``report`` drops the finding when the
    rule is disabled (by the per-path config policies) for the file
    the anchor node lives in, and routes it to ``suppressed`` when
    that line carries a matching ``# repro: noqa`` comment.
    """

    def __init__(self, rule_id: str, config: LintConfig) -> None:
        self.rule_id = rule_id
        self.config = config
        self.findings: List[Finding] = []
        self.suppressed: List[Finding] = []

    def enabled_for(self, relpath: str) -> bool:
        return self.rule_id in self.config.rules_for_path(relpath)

    def report(self, module: ModuleInfo, node: ast.AST, message: str) -> None:
        self.report_at(
            module,
            getattr(node, "lineno", 1),
            getattr(node, "col_offset", 0),
            message,
        )

    def report_at(
        self, module: ModuleInfo, lineno: int, col: int, message: str
    ) -> None:
        if not self.enabled_for(module.relpath):
            return
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


class CheckpointCompletenessRule(ProgramRule):
    """REP009 — every mutable attribute survives a checkpoint cycle.

    For a class that defines ``state_dict``, any attribute ever
    assigned a mutable value (list/dict/set/... ) in a method body
    must be *referenced* somewhere in the ``state_dict`` /
    ``load_state_dict`` pair — directly or through methods they call
    on ``self`` — otherwise a recovered instance silently loses that
    state and byte-identical resume is broken.
    """

    rule_id = "REP009"
    name = "ckpt-complete"
    description = (
        "classes defining state_dict must cover every mutable "
        "attribute their methods assign (or rebuild it in "
        "load_state_dict)"
    )

    def check(self, model: ProgramModel, reporter: ProgramReporter) -> None:
        for mod_name in sorted(model.modules):
            info = model.modules[mod_name]
            for cls_name in sorted(info.classes):
                cls = info.classes[cls_name]
                if "state_dict" not in cls.methods:
                    continue
                covered = self._covered_attrs(cls)
                for attr in sorted(cls.mutable_attrs):
                    if attr in covered:
                        continue
                    node = cls.mutable_attrs[attr]
                    reporter.report(
                        info,
                        node,
                        f"mutable attribute `self.{attr}` of "
                        f"{cls.name} is never referenced by "
                        f"state_dict/load_state_dict; a recovered "
                        f"instance would silently lose it",
                    )

    @staticmethod
    def _covered_attrs(cls) -> Set[str]:
        """Attributes referenced by the checkpoint pair, following
        ``self.<method>()`` calls within the class."""
        covered: Set[str] = set()
        seen: Set[str] = set()
        frontier = [
            m for m in ("state_dict", "load_state_dict") if m in cls.methods
        ]
        while frontier:
            method = frontier.pop()
            if method in seen:
                continue
            seen.add(method)
            covered |= cls.self_refs.get(method, set())
            for raw in cls.methods[method].calls:
                parts = raw.split(".")
                if (
                    len(parts) == 2
                    and parts[0] in ("self", "cls")
                    and parts[1] in cls.methods
                ):
                    frontier.append(parts[1])
        return covered


class UnorderedIterationRule(ProgramRule):
    """REP010 — no iteration over unordered collections on cost paths.

    ``set`` literals/constructors and directory listings
    (``os.listdir``, ``os.scandir``, ``Path.iterdir``, ``glob``)
    yield elements in an order the platform does not control; a
    ``for`` loop or comprehension driven by one feeds
    hash-randomized or filesystem order into whatever state it
    builds. Wrapping the source in ``sorted(...)`` fixes the order
    and silences the rule.
    """

    rule_id = "REP010"
    name = "unordered-iter"
    description = (
        "for-loops/comprehensions must not iterate raw sets or "
        "directory listings; wrap the source in sorted(...)"
    )

    _UNORDERED_CALLS = frozenset(
        {"set", "frozenset", "listdir", "scandir", "iterdir", "glob",
         "iglob", "rglob"}
    )

    def check(self, model: ProgramModel, reporter: ProgramReporter) -> None:
        for mod_name in sorted(model.modules):
            info = model.modules[mod_name]
            if not reporter.enabled_for(info.relpath):
                continue
            for node in ast.walk(info.parsed.tree):
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    sources = [node.iter]
                elif isinstance(
                    node,
                    (ast.ListComp, ast.SetComp, ast.DictComp,
                     ast.GeneratorExp),
                ):
                    sources = [gen.iter for gen in node.generators]
                else:
                    continue
                for source in sources:
                    label = self._unordered(source)
                    if label is not None:
                        reporter.report(
                            info,
                            source,
                            f"iteration over unordered {label}; wrap "
                            f"it in sorted(...) so downstream state "
                            f"is deterministic",
                        )

    def _unordered(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "set literal"
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name is not None:
                leaf = name.split(".")[-1]
                if leaf in self._UNORDERED_CALLS:
                    return f"`{name}(...)`"
        return None


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
                    reporter.report_at(
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
                reporter.report_at(
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
        reporter.report_at(
            model.modules[edge.importer],
            edge.lineno,
            edge.col,
            f"subsystem import cycle: {' -> '.join(cycle)} "
            f"(edge `{cycle[0]}` -> `{cycle[1]}` witnessed here)",
        )


class WallClockReachRule(ProgramRule):
    """REP013 — no wall-clock read in, or reachable from, cost-path code.

    The cost model, engine, and scheduler order every decision by the
    engine's virtual cost clock; a wall read there makes scheduling
    (and therefore recovery replay) machine-dependent. A function is
    flagged when it reads ``time.*``/``datetime.now`` itself, or when
    the conservative call graph shows a chain from it to a function
    that does — even when the read lives in another module.
    Functions in modules where this rule is disabled by policy (the
    dual-clock tracer) are *sanctioned*: chains neither match nor pass
    through them. The call graph drops anything it cannot resolve, so
    every reported chain is provably wired; the rule under-approximates
    and never invents a path.
    """

    rule_id = "REP013"
    name = "wall-reach"
    description = (
        "cost-path code may not read the wall clock, directly or "
        "through any call chain"
    )

    def check(self, model: ProgramModel, reporter: ProgramReporter) -> None:
        sanctioned_cache: Dict[str, bool] = {}

        def sanctioned(qualname: str) -> bool:
            relpath = model.functions[qualname].relpath
            verdict = sanctioned_cache.get(relpath)
            if verdict is None:
                verdict = self.rule_id not in (
                    reporter.config.rules_for_path(relpath)
                )
                sanctioned_cache[relpath] = verdict
            return verdict

        def reads_wall(qualname: str) -> bool:
            return bool(model.functions[qualname].wall_reads)

        for qualname in sorted(model.functions):
            func = model.functions[qualname]
            if not reporter.enabled_for(func.relpath):
                continue
            chain = (
                [qualname]
                if reads_wall(qualname)
                else model.call_chain_to(
                    qualname, reads_wall, skip=sanctioned
                )
            )
            if chain is None:
                continue
            tail = model.functions[chain[-1]]
            node, read = tail.wall_reads[0]
            rendered = " -> ".join(
                q[len("repro."):] if q.startswith("repro.") else q
                for q in chain
            )
            reporter.report(
                model.modules[func.module],
                func.node,
                f"`{func.name}` reaches a wall-clock read: "
                f"{rendered} ({read} at {tail.relpath}:"
                f"{getattr(node, 'lineno', '?')})",
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
                node,
                f"telemetry name `{const}` (\"{value}\") is declared "
                f"but no live code emits or references it; delete it "
                f"or wire up the emission",
            )


#: Every shipped program rule, in id order.
PROGRAM_RULES: Tuple[ProgramRule, ...] = (
    CheckpointCompletenessRule(),
    UnorderedIterationRule(),
    LayeringRule(),
    WallClockReachRule(),
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

"""The whole-program model behind reprolint's cross-file rules.

The layering and telemetry-vocabulary invariants span module
boundaries. This module builds, from the already-parsed tree, the two
structures the checks in :mod:`repro.analysis.checks` reason over:

* **per-module symbol tables** (:class:`ModuleInfo`) — module-level
  string constants, import alias tables, every string literal passed
  as the first argument of a method call, and every
  statically-visible reference to another ``repro`` module's
  attribute;
* **a subsystem-level import graph** — edges between top-level
  ``repro.<subsystem>`` packages, built from the imports that run at
  module load: an import inside a function body (deferred) or an
  ``if TYPE_CHECKING:`` block is recorded with that tag and kept out
  of the graph.

Everything here is derived from :class:`ParsedModule` ASTs; no linted
code is imported or executed.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple


@dataclass(frozen=True)
class ParsedModule:
    """One source file, parsed once and shared by both checks."""

    relpath: str  # posix, relative to the lint root
    tree: ast.AST


def module_name_for(relpath: str) -> str:
    """Dotted module name for a repo-relative posix path.

    ``src/repro/execution/engine.py`` → ``repro.execution.engine``;
    a package ``__init__.py`` names the package itself. Files outside
    a ``src/`` layout keep their path-derived name (corpus fixtures
    written as bare ``snippet.py`` become module ``snippet``).
    """
    parts = relpath.split("/")
    if parts and parts[0] in ("src", "lib"):
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(part for part in parts if part) or relpath


def subsystem_of(module_name: str) -> str:
    """Owning subsystem: ``repro.execution.engine`` → ``execution``.

    Top-level modules (``repro.cli``) are their own subsystem; names
    outside the ``repro`` package use their first component.
    """
    parts = module_name.split(".")
    if parts[0] == "repro" and len(parts) > 1:
        return parts[1]
    return parts[0]


def _is_repro(name: str) -> bool:
    return name == "repro" or name.startswith("repro.")


@dataclass(frozen=True)
class ImportEdge:
    """One ``import``/``from-import`` of a ``repro`` module."""

    importer: str  # dotted name of the importing module
    target: str  # dotted name of the imported repro module
    lineno: int
    col: int
    deferred: bool  # inside a function/method body
    type_checking: bool  # inside an `if TYPE_CHECKING:` block


@dataclass
class ModuleInfo:
    """Symbol table of one parsed module."""

    parsed: ParsedModule
    name: str
    relpath: str
    subsystem: str
    imports: List[ImportEdge] = field(default_factory=list)
    #: local alias -> dotted repro module (``import repro.x as y``,
    #: ``from repro.obs import names``).
    module_aliases: Dict[str, str] = field(default_factory=dict)
    #: local name -> (repro module, member) for ``from repro.x import f``.
    member_aliases: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    #: module-level string constants: name -> (value, assignment node).
    string_constants: Dict[str, Tuple[str, ast.AST]] = field(
        default_factory=dict
    )
    #: statically-visible references to other repro modules' attributes
    #: (resolved at model-build time, after submodule-alias promotion).
    attr_refs: Set[Tuple[str, str]] = field(default_factory=set)
    #: every string literal appearing as the first argument of an
    #: attribute-call (candidate telemetry-name usage sites).
    call_str_args: Set[str] = field(default_factory=set)


def _is_type_checking_test(test: ast.AST) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    return (
        isinstance(test, ast.Attribute)
        and test.attr == "TYPE_CHECKING"
        and isinstance(test.value, ast.Name)
        and test.value.id == "typing"
    )


class _ModuleScanner:
    """One pass over a module's statements: its imports, each tagged
    with where it sits, and its module-level string constants."""

    def __init__(self, info: ModuleInfo) -> None:
        self.info = info
        #: package the module's relative imports resolve against.
        parts = info.name.split(".")
        if info.relpath.endswith("__init__.py"):
            self.package = parts
        else:
            self.package = parts[:-1]

    def scan(self) -> None:
        self._visit(self.info.parsed.tree, "module", False)

    def _visit(self, node: ast.AST, where: str, type_checking: bool) -> None:
        """``where`` is ``module``, ``class`` (a class body that runs
        at import time) or ``function`` (anything under a ``def``)."""
        if isinstance(node, ast.Import):
            for alias in node.names:
                self._record_edge(alias.name, node, where, type_checking)
                if _is_repro(alias.name) and alias.asname:
                    self.info.module_aliases[alias.asname] = alias.name
                # plain `import repro.x` binds `repro`; dotted refs
                # resolve through the known-module prefix match.
            return
        if isinstance(node, ast.ImportFrom):
            self._visit_import_from(node, where, type_checking)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = "function"
        elif isinstance(node, ast.ClassDef) and where == "module":
            where = "class"
        elif isinstance(node, ast.If) and _is_type_checking_test(node.test):
            for stmt in node.body:
                self._visit(stmt, where, True)
            for stmt in node.orelse:
                self._visit(stmt, where, type_checking)
            return
        elif where == "module" and isinstance(node, (ast.Assign, ast.AnnAssign)):
            self._record_constant(node)
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, ast.expr):
                self._visit(child, where, type_checking)

    def _record_constant(self, node) -> None:
        value = node.value
        if not (isinstance(value, ast.Constant) and isinstance(value.value, str)):
            return
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if isinstance(target, ast.Name) and not (
                target.id.startswith("__") and target.id.endswith("__")
            ):
                self.info.string_constants[target.id] = (value.value, node)

    def _resolve_from(self, node: ast.ImportFrom) -> Optional[str]:
        if node.level == 0:
            return node.module
        base = self.package[: len(self.package) - (node.level - 1)]
        if node.level - 1 > len(self.package):
            return None
        if node.module:
            return ".".join(base + node.module.split("."))
        return ".".join(base) or None

    def _record_edge(
        self, target: str, node: ast.AST, where: str, type_checking: bool
    ) -> None:
        if _is_repro(target):
            self.info.imports.append(
                ImportEdge(
                    importer=self.info.name,
                    target=target,
                    lineno=node.lineno,
                    col=node.col_offset,
                    deferred=where == "function",
                    type_checking=type_checking,
                )
            )

    def _visit_import_from(
        self, node: ast.ImportFrom, where: str, type_checking: bool
    ) -> None:
        target = self._resolve_from(node)
        if target is None or not _is_repro(target):
            return
        for alias in node.names:
            if alias.name == "*":
                self._record_edge(target, node, where, type_checking)
                continue
            # Record the edge per imported name: the build-time
            # longest-prefix resolution collapses
            # `repro.obs.metrics.MetricsRegistry` to the module
            # `repro.obs.metrics` but keeps `repro.obs.names` precise
            # when the imported name IS a submodule.
            self._record_edge(
                f"{target}.{alias.name}", node, where, type_checking
            )
            # `from repro.obs import names` may bind a submodule; the
            # build promotes it once every module is known.
            self.info.member_aliases[alias.asname or alias.name] = (
                target,
                alias.name,
            )


@dataclass
class ProgramModel:
    """The whole-program view the checks reason over."""

    modules: Dict[str, ModuleInfo] = field(default_factory=dict)
    #: importer subsystem -> imported subsystem -> witness edges.
    subsystem_graph: Dict[str, Dict[str, List[ImportEdge]]] = field(
        default_factory=dict
    )

    @classmethod
    def build(cls, parsed_modules: Sequence[ParsedModule]) -> "ProgramModel":
        model = cls()
        for parsed in parsed_modules:
            name = module_name_for(parsed.relpath)
            info = ModuleInfo(
                parsed=parsed,
                name=name,
                relpath=parsed.relpath,
                subsystem=subsystem_of(name),
            )
            _ModuleScanner(info).scan()
            model.modules[name] = info
        model._promote_submodule_aliases()
        for info in model.modules.values():
            _collect_refs(info)
        model._build_graph()
        return model

    def _promote_submodule_aliases(self) -> None:
        """``from repro.obs import names`` binds the submodule, not an
        attribute — reclassify member aliases whose target is a known
        module."""
        for info in self.modules.values():
            for local, (module, member) in list(info.member_aliases.items()):
                candidate = f"{module}.{member}"
                if candidate in self.modules:
                    del info.member_aliases[local]
                    info.module_aliases[local] = candidate

    def _build_graph(self) -> None:
        for info in self.modules.values():
            for edge in info.imports:
                if edge.type_checking or edge.deferred:
                    continue
                by_target = self.subsystem_graph.setdefault(info.subsystem, {})
                by_target.setdefault(subsystem_of(edge.target), []).append(edge)

    def resolve_module(self, dotted: str) -> Optional[str]:
        """Longest known-module prefix of ``dotted`` (or ``None``)."""
        parts = dotted.split(".")
        for end in range(len(parts), 0, -1):
            candidate = ".".join(parts[:end])
            if candidate in self.modules:
                return candidate
        return None


def _collect_refs(info: ModuleInfo) -> None:
    """Fill ``attr_refs`` and ``call_str_args`` from every expression
    in the module, through its final alias tables."""
    for node in ast.walk(info.parsed.tree):
        if isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Attribute)
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                info.call_str_args.add(node.args[0].value)
        elif isinstance(node, ast.Attribute) and isinstance(
            node.value, ast.Name
        ):
            base = node.value.id
            if base in info.module_aliases:
                info.attr_refs.add((info.module_aliases[base], node.attr))
            elif base in info.member_aliases:
                # `from repro.x import y; y.attr` — y is a class or
                # constant; still record the reference to y itself.
                info.attr_refs.add(info.member_aliases[base])
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            member = info.member_aliases.get(node.id)
            if member is not None:
                info.attr_refs.add(member)

"""The whole-program model behind reprolint's cross-file rules.

The invariants replay depends on — no wall clock reachable from cost
paths, every mutable field captured by ``state_dict``, imports only
down the layer table — span module boundaries. This module builds, in
one pass over the already-parsed tree, the three structures the
:class:`~repro.analysis.progrules.ProgramRule` pack reasons over:

* **per-module symbol tables** (:class:`ModuleInfo`) — classes with
  their methods and attribute assignments, functions with the calls
  they make, module-level string constants, import alias tables, and every statically-visible reference to another
  ``repro`` module's attribute;
* **a subsystem-level import graph** — edges between top-level
  ``repro.<subsystem>`` packages, each tagged with whether the import
  is deferred (function-local) or annotation-only
  (``TYPE_CHECKING``), plus cycle detection;
* **a conservative call graph** — name/attribute resolution strictly
  within ``repro.*`` (same-module names, ``from repro.x import f``
  aliases, ``module.attr`` chains, ``self.method`` within a class,
  ``ClassName(...)`` → ``__init__``). Anything it cannot resolve it
  drops, so closure queries under-approximate reachability and never
  invent an edge — program rules built on it report only what is
  provably wired.

Everything here is derived from :class:`ParsedModule` ASTs; no linted
code is imported or executed.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analysis.base import ParsedModule

#: Constructors whose result is shared mutable state when bound at
#: module or instance level.
MUTABLE_CALLS = frozenset(
    {
        "list",
        "dict",
        "set",
        "bytearray",
        "defaultdict",
        "deque",
        "OrderedDict",
        "Counter",
    }
)

#: ``time.<fn>`` reads that leak wall-clock into a computation.
WALL_TIME_FNS = frozenset(
    {
        "time",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "time_ns",
    }
)

#: ``datetime.<fn>`` / ``date.<fn>`` wall-clock constructors.
WALL_DATETIME_FNS = frozenset({"now", "utcnow", "today"})


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


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


def is_mutable_value(node: ast.AST) -> bool:
    """True when ``node`` constructs an obviously mutable object."""
    if isinstance(
        node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
    ):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name is not None and name.split(".")[-1] in MUTABLE_CALLS:
            return True
    return False


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
class FunctionInfo:
    """One function or method definition."""

    qualname: str  # repro.execution.engine.Engine.run
    name: str
    module: str  # dotted module name
    relpath: str
    node: ast.AST  # the FunctionDef/AsyncFunctionDef
    class_name: Optional[str] = None
    #: Raw dotted call targets as written (``self.flush``, ``np.dot``).
    calls: List[str] = field(default_factory=list)
    #: Wall-clock reads made directly in this body: (node, rendered name).
    wall_reads: List[Tuple[ast.AST, str]] = field(default_factory=list)


@dataclass
class ClassInfo:
    """One class definition with its persistence-relevant surface."""

    qualname: str
    name: str
    module: str
    relpath: str
    node: ast.ClassDef
    bases: Tuple[str, ...] = ()
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: attribute -> first assignment node, for `self.<attr> = <mutable>`
    #: found in any method body.
    mutable_attrs: Dict[str, ast.AST] = field(default_factory=dict)
    #: every attribute read or written through ``self`` per method name.
    self_refs: Dict[str, Set[str]] = field(default_factory=dict)
    #: string keys of dict literals returned by ``state_dict`` (None =
    #: no statically extractable literal return).
    state_dict_keys: Optional[FrozenSet[str]] = None


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
    #: local alias -> external top-level module (``np`` -> ``numpy``).
    external_aliases: Dict[str, str] = field(default_factory=dict)
    #: local name -> (external module, member) for ``from time import time``.
    external_members: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: module-level string constants: name -> (value, assignment node).
    string_constants: Dict[str, Tuple[str, ast.AST]] = field(
        default_factory=dict
    )
    #: statically-visible references to other repro modules' attributes
    #: (resolved at model-build time, after submodule-alias promotion).
    attr_refs: Set[Tuple[str, str]] = field(default_factory=set)
    #: raw ``<base>.<attr>`` reads collected during the scan.
    raw_attr_refs: List[Tuple[str, str]] = field(default_factory=list)
    #: raw bare-name loads collected during the scan.
    raw_name_refs: List[str] = field(default_factory=list)
    #: every string literal appearing as the first argument of an
    #: attribute-call (candidate telemetry-name usage sites).
    call_str_args: Set[str] = field(default_factory=set)


class _Scope:
    """Walk context: enclosing class/function and import placement."""

    __slots__ = ("class_info", "func_info", "deferred", "type_checking")

    def __init__(self, class_info=None, func_info=None, deferred=False,
                 type_checking=False):
        self.class_info = class_info
        self.func_info = func_info
        self.deferred = deferred
        self.type_checking = type_checking


class _ModuleScanner:
    """Single recursive pass that fills one :class:`ModuleInfo`."""

    def __init__(self, info: ModuleInfo) -> None:
        self.info = info
        #: package the module's relative imports resolve against.
        parts = info.name.split(".")
        if info.relpath.endswith("__init__.py"):
            self.package = parts
        else:
            self.package = parts[:-1]

    def scan(self) -> None:
        scope = _Scope()
        for stmt in self.info.parsed.tree.body:
            self._visit(stmt, scope)

    # -- imports ---------------------------------------------------------

    def _resolve_from(self, node: ast.ImportFrom) -> Optional[str]:
        if node.level == 0:
            return node.module
        base = self.package[: len(self.package) - (node.level - 1)]
        if node.level - 1 > len(self.package):
            return None
        if node.module:
            return ".".join(base + node.module.split("."))
        return ".".join(base) or None

    def _record_edge(self, target: str, node: ast.AST, scope: _Scope) -> None:
        if target == "repro" or target.startswith("repro."):
            self.info.imports.append(
                ImportEdge(
                    importer=self.info.name,
                    target=target,
                    lineno=node.lineno,
                    col=node.col_offset,
                    deferred=scope.deferred or scope.func_info is not None,
                    type_checking=scope.type_checking,
                )
            )

    def _visit_import(self, node: ast.Import, scope: _Scope) -> None:
        for alias in node.names:
            self._record_edge(alias.name, node, scope)
            if alias.name.startswith("repro.") or alias.name == "repro":
                if alias.asname:
                    self.info.module_aliases[alias.asname] = alias.name
                # plain `import repro.x` binds `repro`; dotted refs
                # resolve through the known-module prefix match.
            else:
                root = alias.name.split(".")[0]
                self.info.external_aliases[alias.asname or root] = root

    def _visit_import_from(self, node: ast.ImportFrom, scope: _Scope) -> None:
        target = self._resolve_from(node)
        if target is None:
            return
        if target == "repro" or target.startswith("repro."):
            for alias in node.names:
                if alias.name == "*":
                    self._record_edge(target, node, scope)
                    continue
                # Record the edge per imported name: the build-time
                # longest-prefix resolution collapses
                # `repro.obs.metrics.MetricsRegistry` to the module
                # `repro.obs.metrics` but keeps `repro.obs.names`
                # precise when the imported name IS a submodule.
                self._record_edge(f"{target}.{alias.name}", node, scope)
                local = alias.asname or alias.name
                # `from repro.obs import names` may bind a submodule;
                # resolution against known modules happens at build
                # time, so record both readings and let the model
                # prefer the module one.
                self.info.member_aliases[local] = (target, alias.name)
        else:
            root = target.split(".")[0]
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                self.info.external_members[local] = (root, alias.name)

    # -- structure -------------------------------------------------------

    def _qualname(self, scope: _Scope, name: str) -> str:
        parts = [self.info.name]
        if scope.class_info is not None:
            parts.append(scope.class_info.name)
        if scope.func_info is not None:
            parts.append(scope.func_info.name)
        parts.append(name)
        return ".".join(parts)

    def _visit_classdef(self, node: ast.ClassDef, scope: _Scope) -> None:
        bases = tuple(
            name for name in (dotted_name(b) for b in node.bases) if name
        )
        info = ClassInfo(
            qualname=self._qualname(scope, node.name),
            name=node.name,
            module=self.info.name,
            relpath=self.info.relpath,
            node=node,
            bases=bases,
        )
        if scope.class_info is None and scope.func_info is None:
            self.info.classes[node.name] = info
        inner = _Scope(
            class_info=info,
            func_info=None,
            deferred=scope.deferred or scope.func_info is not None,
            type_checking=scope.type_checking,
        )
        for stmt in node.body:
            self._visit(stmt, inner)
        self._extract_state_dict_keys(info)

    def _visit_functiondef(self, node, scope: _Scope) -> None:
        func = FunctionInfo(
            qualname=self._qualname(scope, node.name),
            name=node.name,
            module=self.info.name,
            relpath=self.info.relpath,
            node=node,
            class_name=(
                scope.class_info.name if scope.class_info is not None else None
            ),
        )
        self.info.functions[func.qualname] = func
        if scope.class_info is not None and scope.func_info is None:
            scope.class_info.methods[node.name] = func
            scope.class_info.self_refs.setdefault(node.name, set())
        for decorator in node.decorator_list:
            self._visit_expr(decorator, scope)
        inner = _Scope(
            class_info=scope.class_info,
            func_info=func,
            deferred=True,
            type_checking=scope.type_checking,
        )
        for stmt in node.body:
            self._visit(stmt, inner)

    # -- statements ------------------------------------------------------

    def _is_type_checking_test(self, test: ast.AST) -> bool:
        name = dotted_name(test)
        return name in ("TYPE_CHECKING", "typing.TYPE_CHECKING")

    def _visit(self, node: ast.AST, scope: _Scope) -> None:
        if isinstance(node, ast.Import):
            self._visit_import(node, scope)
        elif isinstance(node, ast.ImportFrom):
            self._visit_import_from(node, scope)
        elif isinstance(node, ast.ClassDef):
            self._visit_classdef(node, scope)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._visit_functiondef(node, scope)
        elif isinstance(node, ast.If) and self._is_type_checking_test(
            node.test
        ):
            inner = _Scope(
                scope.class_info, scope.func_info, scope.deferred, True
            )
            for stmt in node.body:
                self._visit(stmt, inner)
            for stmt in node.orelse:
                self._visit(stmt, scope)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            self._visit_assign(node, scope)
        else:
            # Generic statement: visit nested statements structurally,
            # expressions for refs/calls.
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.stmt):
                    self._visit(child, scope)
                else:
                    self._visit_expr(child, scope)

    def _visit_assign(self, node, scope: _Scope) -> None:
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        else:
            targets = [node.target]
            value = node.value
        for target in targets:
            if (
                isinstance(target, ast.Name)
                and scope.class_info is None
                and scope.func_info is None
            ):
                name = target.id
                if value is not None and not (
                    name.startswith("__") and name.endswith("__")
                ):
                    if (
                        isinstance(value, ast.Constant)
                        and isinstance(value.value, str)
                        and not isinstance(node, ast.AugAssign)
                    ):
                        self.info.string_constants[name] = (value.value, node)
            elif (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and scope.class_info is not None
                and scope.func_info is not None
            ):
                attr = target.attr
                method = scope.func_info.name
                scope.class_info.self_refs.setdefault(method, set()).add(attr)
                if value is not None and is_mutable_value(value):
                    scope.class_info.mutable_attrs.setdefault(attr, node)
            self._visit_expr(target, scope)
        if value is not None:
            self._visit_expr(value, scope)

    # -- expressions -----------------------------------------------------

    def _visit_expr(self, node: ast.AST, scope: _Scope) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                self._record_call(sub, scope)
            elif isinstance(sub, ast.Attribute):
                self._record_attr(sub, scope)
            elif isinstance(sub, ast.Name):
                self._record_name(sub, scope)
            elif isinstance(sub, (ast.Lambda,)):
                continue

    def _record_call(self, node: ast.Call, scope: _Scope) -> None:
        name = dotted_name(node.func)
        if name is None:
            return
        if scope.func_info is not None:
            scope.func_info.calls.append(name)
            self._check_wall_read(node, name, scope.func_info)
        if (
            isinstance(node.func, ast.Attribute)
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            self.info.call_str_args.add(node.args[0].value)

    def _check_wall_read(
        self, node: ast.Call, name: str, func: FunctionInfo
    ) -> None:
        parts = name.split(".")
        time_aliases = {
            alias
            for alias, mod in self.info.external_aliases.items()
            if mod == "time"
        } | {"time"}
        dt_aliases = {
            alias
            for alias, mod in self.info.external_aliases.items()
            if mod == "datetime"
        } | {"datetime"}
        dt_members = {
            local
            for local, (mod, _) in self.info.external_members.items()
            if mod == "datetime"
        }
        if (
            len(parts) == 2
            and parts[0] in time_aliases
            and parts[1] in WALL_TIME_FNS
        ):
            func.wall_reads.append((node, name))
        elif (
            len(parts) >= 2
            and parts[-1] in WALL_DATETIME_FNS
            and (parts[0] in dt_aliases or parts[0] in dt_members)
        ):
            func.wall_reads.append((node, name))
        elif len(parts) == 1:
            member = self.info.external_members.get(parts[0])
            if (
                member is not None
                and member[0] == "time"
                and member[1] in WALL_TIME_FNS
            ):
                func.wall_reads.append((node, name))

    def _record_attr(self, node: ast.Attribute, scope: _Scope) -> None:
        if isinstance(node.value, ast.Name):
            self.info.raw_attr_refs.append((node.value.id, node.attr))
            if (
                node.value.id == "self"
                and scope.class_info is not None
                and scope.func_info is not None
            ):
                scope.class_info.self_refs.setdefault(
                    scope.func_info.name, set()
                ).add(node.attr)

    def _record_name(self, node: ast.Name, scope: _Scope) -> None:
        if isinstance(node.ctx, ast.Load):
            self.info.raw_name_refs.append(node.id)

    # -- state_dict literal keys ----------------------------------------

    @staticmethod
    def _extract_state_dict_keys(info: ClassInfo) -> None:
        func = info.methods.get("state_dict")
        if func is None:
            return
        keys: Set[str] = set()
        saw_return = False
        for sub in ast.walk(func.node):
            if not isinstance(sub, ast.Return) or sub.value is None:
                continue
            saw_return = True
            if not isinstance(sub.value, ast.Dict):
                return
            for key in sub.value.keys:
                if isinstance(key, ast.Constant) and isinstance(
                    key.value, str
                ):
                    keys.add(key.value)
                else:
                    return
        if saw_return:
            info.state_dict_keys = frozenset(keys)


@dataclass
class ProgramModel:
    """The one-pass whole-program view the program rules reason over."""

    modules: Dict[str, ModuleInfo] = field(default_factory=dict)
    by_relpath: Dict[str, ModuleInfo] = field(default_factory=dict)
    #: importer subsystem -> imported subsystem -> witness edges.
    subsystem_graph: Dict[str, Dict[str, List[ImportEdge]]] = field(
        default_factory=dict
    )
    #: caller qualname -> resolved callee qualnames (repro.* only).
    call_graph: Dict[str, FrozenSet[str]] = field(default_factory=dict)
    #: every function/method in the program by qualname.
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)

    # -- construction ----------------------------------------------------

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
            model.by_relpath[parsed.relpath] = info
        model._promote_submodule_aliases()
        model._resolve_attr_refs()
        model._build_graphs()
        model._build_call_graph()
        return model

    def _promote_submodule_aliases(self) -> None:
        """``from repro.obs import names`` binds the submodule, not an
        attribute — reclassify member aliases whose target is a known
        module."""
        for info in self.modules.values():
            promote = []
            for local, (module, member) in info.member_aliases.items():
                candidate = f"{module}.{member}"
                if candidate in self.modules:
                    promote.append((local, candidate))
            for local, candidate in promote:
                del info.member_aliases[local]
                info.module_aliases[local] = candidate

    def _resolve_attr_refs(self) -> None:
        """Turn raw name/attribute reads into (module, attr) refs."""
        for info in self.modules.values():
            for base, attr in info.raw_attr_refs:
                target = info.module_aliases.get(base)
                if target is not None:
                    info.attr_refs.add((target, attr))
                    continue
                member = info.member_aliases.get(base)
                if member is not None:
                    # `from repro.x import y; y.attr` — y is a class or
                    # constant; still record the reference to y itself.
                    info.attr_refs.add(member)
            for name in info.raw_name_refs:
                member = info.member_aliases.get(name)
                if member is not None:
                    info.attr_refs.add(member)

    def _build_graphs(self) -> None:
        for info in self.modules.values():
            for edge in info.imports:
                if edge.type_checking or edge.deferred:
                    continue
                importer_sub = info.subsystem
                target_sub = subsystem_of(edge.target)
                by_target = self.subsystem_graph.setdefault(importer_sub, {})
                by_target.setdefault(target_sub, []).append(edge)

    def resolve_module(self, dotted: str) -> Optional[str]:
        """Longest known-module prefix of ``dotted`` (or ``None``)."""
        parts = dotted.split(".")
        for end in range(len(parts), 0, -1):
            candidate = ".".join(parts[:end])
            if candidate in self.modules:
                return candidate
        return None

    # -- call resolution -------------------------------------------------

    def _resolve_ref(
        self, info: ModuleInfo, raw: str, class_info: Optional[ClassInfo]
    ) -> Optional[str]:
        """Map one raw dotted call target to a known qualname."""
        parts = raw.split(".")
        head = parts[0]
        # self.method() / cls.method() inside a class body.
        if head in ("self", "cls") and class_info is not None:
            if len(parts) == 2 and parts[1] in class_info.methods:
                return class_info.methods[parts[1]].qualname
            return None
        # Local plain name: same-module function/class or from-import.
        if len(parts) == 1:
            if head in info.functions_by_name():
                return info.functions_by_name()[head]
            if head in info.classes:
                return self._class_target(info.classes[head])
            member = info.member_aliases.get(head)
            if member is not None:
                return self._member_target(member)
            return None
        # Alias-qualified: substitute the head and longest-prefix match.
        expanded: Optional[str] = None
        if head in info.module_aliases:
            expanded = ".".join([info.module_aliases[head]] + parts[1:])
        elif head == "repro":
            expanded = raw
        elif head in info.member_aliases:
            module, member = info.member_aliases[head]
            expanded = ".".join([module, member] + parts[1:])
        elif head in info.classes and len(parts) == 2:
            # ClassName.method(...) — unbound call through the class.
            method = info.classes[head].methods.get(parts[1])
            return method.qualname if method is not None else None
        if expanded is None:
            return None
        module = self.resolve_module(expanded)
        if module is None:
            return None
        remainder = expanded[len(module) :].lstrip(".")
        if not remainder:
            return None
        target_info = self.modules[module]
        rparts = remainder.split(".")
        if rparts[0] in target_info.classes:
            cls_info = target_info.classes[rparts[0]]
            if len(rparts) >= 2:
                method = cls_info.methods.get(rparts[1])
                return method.qualname if method is not None else None
            return self._class_target(cls_info)
        if len(rparts) == 1 and rparts[0] in target_info.functions_by_name():
            return target_info.functions_by_name()[rparts[0]]
        return None

    @staticmethod
    def _class_target(cls_info: ClassInfo) -> Optional[str]:
        init = cls_info.methods.get("__init__")
        return init.qualname if init is not None else None

    def _member_target(self, member: Tuple[str, str]) -> Optional[str]:
        module, name = member
        resolved = self.resolve_module(module)
        if resolved is None:
            return None
        target_info = self.modules[resolved]
        if name in target_info.classes:
            return self._class_target(target_info.classes[name])
        return target_info.functions_by_name().get(name)

    def _build_call_graph(self) -> None:
        for info in self.modules.values():
            for func in info.functions.values():
                self.functions[func.qualname] = func
        for info in self.modules.values():
            class_by_name = {
                cls.name: cls for cls in info.classes.values()
            }
            for func in info.functions.values():
                class_info = (
                    class_by_name.get(func.class_name)
                    if func.class_name is not None
                    else None
                )
                callees: Set[str] = set()
                for raw in func.calls:
                    resolved = self._resolve_ref(info, raw, class_info)
                    if resolved is not None and resolved != func.qualname:
                        callees.add(resolved)
                self.call_graph[func.qualname] = frozenset(callees)

    # -- queries ---------------------------------------------------------

    def find_subsystem_cycle(self) -> Optional[List[str]]:
        """A subsystem import cycle as ``[a, b, ..., a]``, or ``None``.

        Self-edges (intra-subsystem imports) are not cycles.
        """
        graph = {
            src: sorted(dst for dst in targets if dst != src)
            for src, targets in self.subsystem_graph.items()
        }
        WHITE, GREY, BLACK = 0, 1, 2
        color = {node: WHITE for node in graph}
        stack: List[str] = []

        def dfs(node: str) -> Optional[List[str]]:
            color[node] = GREY
            stack.append(node)
            for succ in graph.get(node, ()):  # sorted → deterministic
                if succ not in color:
                    continue
                if color[succ] == GREY:
                    start = stack.index(succ)
                    return stack[start:] + [succ]
                if color[succ] == WHITE:
                    found = dfs(succ)
                    if found is not None:
                        return found
            stack.pop()
            color[node] = BLACK
            return None

        for node in sorted(graph):
            if color[node] == WHITE:
                found = dfs(node)
                if found is not None:
                    return found
        return None

    def call_chain_to(
        self,
        start: str,
        predicate,
        skip=None,
    ) -> Optional[List[str]]:
        """Shortest call chain from ``start`` to a function satisfying
        ``predicate`` — BFS over the call graph, deterministic order.

        ``skip(qualname)`` prunes sanctioned functions: they neither
        match nor propagate. Returns ``[start, ..., match]`` or
        ``None``. ``start`` itself is never returned as the match.
        """
        visited = {start}
        queue: List[Tuple[str, List[str]]] = [(start, [start])]
        while queue:
            current, path = queue.pop(0)
            for callee in sorted(self.call_graph.get(current, ())):
                if callee in visited:
                    continue
                visited.add(callee)
                if skip is not None and skip(callee):
                    continue
                chain = path + [callee]
                if predicate(callee):
                    return chain
                queue.append((callee, chain))
        return None


def _functions_by_name(info: ModuleInfo) -> Dict[str, str]:
    table = getattr(info, "_fn_by_name", None)
    if table is None:
        table = {
            func.name: func.qualname
            for func in info.functions.values()
            if func.class_name is None and "." not in func.name
        }
        info._fn_by_name = table  # type: ignore[attr-defined]
    return table


# Bind as a method (kept out of the dataclass body for cache clarity).
ModuleInfo.functions_by_name = _functions_by_name  # type: ignore[attr-defined]

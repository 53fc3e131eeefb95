"""The project rule pack: REP001–REP008. REP002 (direct wall-clock
reads) is retired: REP013 flags a direct read as well as a chain to
one. REP003 (state-dict pairs) is retired: the checkpoint round-trip
properties fail on a class missing either half. REP006 (fault-site
literals) is retired: ``FaultSpec`` refuses an unknown site itself.

Each rule mechanically enforces one invariant the platform's
byte-identical-recovery and canary-routing guarantees rest on; see
``DESIGN.md`` §9 for the invariant-by-invariant rationale. Rules are
pure AST checks — no imports of the linted code are executed — and
check telemetry names against the committed constants module
:mod:`repro.obs.names`.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.base import ParsedModule, Rule
from repro.obs import names as _names


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


def _first_str_arg(node: ast.Call) -> Optional[str]:
    if node.args and isinstance(node.args[0], ast.Constant):
        value = node.args[0].value
        if isinstance(value, str):
            return value
    return None


class _ImportTracker:
    """Per-module aliases of interesting modules (``np`` → numpy…)."""

    def __init__(self, *modules: str) -> None:
        self.modules = modules
        self.aliases: Dict[str, Set[str]] = {m: set() for m in modules}
        #: names imported *from* a module: {"numpy": {"random", ...}}
        self.members: Dict[str, Set[str]] = {m: set() for m in modules}

    def feed_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".")[0]
            if root in self.aliases:
                self.aliases[root].add(alias.asname or root)

    def feed_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is None:
            return
        root = node.module.split(".")[0]
        if root in self.members:
            for alias in node.names:
                self.members[root].add(alias.asname or alias.name)


class RawRandomRule(Rule):
    """REP001 — all randomness flows through ``repro.utils.rng``.

    Flags imports/uses of the stdlib ``random`` module and any call
    through ``numpy.random`` (including ``default_rng`` and the legacy
    ``RandomState``) outside ``utils/rng.py``. Seeded
    :class:`numpy.random.Generator` objects obtained from
    ``ensure_rng``/``spawn_rng`` are the only sanctioned source of
    randomness — an unseeded or module-global stream breaks replay.
    """

    rule_id = "REP001"
    name = "raw-rng"
    description = (
        "randomness must come from repro.utils.rng, not the random "
        "module or numpy.random"
    )

    def begin_module(self, module: ParsedModule, report) -> None:
        self._imports = _ImportTracker("numpy", "random")

    def visit_Import(self, node: ast.Import, module, report) -> None:
        self._imports.feed_Import(node)
        for alias in node.names:
            if alias.name.split(".")[0] == "random":
                report(
                    node,
                    "import of the stdlib 'random' module; use "
                    "repro.utils.rng.ensure_rng instead",
                )
            elif alias.name.startswith("numpy.random"):
                report(
                    node,
                    "import of numpy.random; use "
                    "repro.utils.rng.ensure_rng instead",
                )

    def visit_ImportFrom(self, node: ast.ImportFrom, module, report) -> None:
        self._imports.feed_ImportFrom(node)
        if node.module is None:
            return
        root = node.module.split(".")[0]
        if root == "random":
            report(
                node,
                "import from the stdlib 'random' module; use "
                "repro.utils.rng.ensure_rng instead",
            )
        elif node.module.startswith("numpy.random") or (
            root == "numpy"
            and any(alias.name == "random" for alias in node.names)
        ):
            report(
                node,
                "import from numpy.random; use "
                "repro.utils.rng.ensure_rng instead",
            )

    def visit_Call(self, node: ast.Call, module, report) -> None:
        name = dotted_name(node.func)
        if name is None:
            return
        parts = name.split(".")
        numpy_aliases = self._imports.aliases["numpy"] | {"numpy"}
        random_aliases = self._imports.aliases["random"]
        # np.random.<fn>(...) — any call one level below numpy.random.
        if (
            len(parts) >= 3
            and parts[0] in numpy_aliases
            and parts[1] == "random"
        ):
            report(
                node,
                f"call through numpy.random ({'.'.join(parts[1:])}); "
                "use repro.utils.rng.ensure_rng / spawn_rng",
            )
        # random.<fn>(...) via the stdlib module object.
        elif len(parts) >= 2 and parts[0] in random_aliases:
            report(
                node,
                f"call through the stdlib random module ({name}); "
                "use repro.utils.rng.ensure_rng",
            )


def _methods_of(node: ast.ClassDef) -> Dict[str, ast.FunctionDef]:
    table: Dict[str, ast.FunctionDef] = {}
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            table[item.name] = item
    return table


def _own_method_called(node: ast.AST) -> Optional[str]:
    """``self.<name>()`` — the method name, else ``None``."""
    if (
        isinstance(node, ast.Call)
        and not node.args
        and not node.keywords
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "self"
    ):
        return node.func.attr
    return None


def _is_super_state_dict(node: ast.AST) -> bool:
    """``super().state_dict()`` — a subclass extending its parent's state."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "state_dict"
        and isinstance(node.func.value, ast.Call)
        and isinstance(node.func.value.func, ast.Name)
        and node.func.value.func.id == "super"
    )


class StateDictKeysRule(Rule):
    """REP004 — saved and restored state keys must agree.

    When ``state_dict`` returns a literal dict and ``load_state_dict``
    reads literal keys off its state argument, the two key sets are
    statically comparable; a key saved but never restored (or read but
    never saved) is a silent state-loss bug that only shows up as a
    divergent resumed run. Extraction is conservative: any non-literal
    construction on either side skips the class, except two spreads.
    ``**super().state_dict()``: a subclass is checked on the keys it
    adds, its parent on its own. ``**self.head_state()``, any method
    of the same class returning a literal dict: the split a component
    with an append-only log makes (a checkpoint takes the head and
    the live log separately, ``state_dict`` is both) — the helper's
    keys count as saved, so the pair stays checked as one.
    """

    rule_id = "REP004"
    name = "state-dict-keys"
    description = (
        "keys written by state_dict and read by load_state_dict must "
        "match when both are statically extractable"
    )

    @classmethod
    def _saved_keys(
        cls,
        fn: ast.FunctionDef,
        methods: Dict[str, ast.FunctionDef],
    ) -> Optional[Set[str]]:
        """Keys of returned dict literals; None when inexact.
        ``methods`` are the same-class helpers a spread may name (a
        helper's own spreads are not followed)."""
        keys: Set[str] = set()
        saw_return = False
        for sub in ast.walk(fn):
            if not isinstance(sub, ast.Return) or sub.value is None:
                continue
            saw_return = True
            if not isinstance(sub.value, ast.Dict):
                return None
            for key, value in zip(sub.value.keys, sub.value.values):
                if isinstance(key, ast.Constant) and isinstance(
                    key.value, str
                ):
                    keys.add(key.value)
                elif key is None and _is_super_state_dict(value):
                    continue  # the parent's keys, checked on the parent
                else:  # a same-class helper's keys, or give up
                    helper = methods.get(_own_method_called(value))
                    spread = (
                        cls._saved_keys(helper, {})
                        if key is None and helper is not None
                        else None
                    )
                    if spread is None:
                        return None
                    keys |= spread
        return keys if saw_return else None

    @staticmethod
    def _read_keys(fn: ast.FunctionDef) -> Optional[Set[str]]:
        """Keys read off the state parameter; None when inexact."""
        args = fn.args.posonlyargs + fn.args.args
        names = [a.arg for a in args if a.arg not in ("self", "cls")]
        if not names:
            return None
        param = names[0]
        keys: Set[str] = set()
        for sub in ast.walk(fn):
            if (
                isinstance(sub, ast.Subscript)
                and isinstance(sub.value, ast.Name)
                and sub.value.id == param
            ):
                index = sub.slice
                if isinstance(index, ast.Constant) and isinstance(
                    index.value, str
                ):
                    keys.add(index.value)
                else:
                    return None
            elif (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr == "get"
                and isinstance(sub.func.value, ast.Name)
                and sub.func.value.id == param
            ):
                literal = _first_str_arg(sub)
                if literal is None:
                    return None
                keys.add(literal)
        return keys or None

    def visit_ClassDef(self, node: ast.ClassDef, module, report) -> None:
        methods = _methods_of(node)
        save = methods.get("state_dict")
        load = methods.get("load_state_dict")
        if save is None or load is None:
            return
        saved = self._saved_keys(save, methods)
        read = self._read_keys(load)
        if saved is None or read is None:
            return
        for key in sorted(saved - read):
            report(
                save,
                f"class {node.name}: state_dict saves key {key!r} "
                "that load_state_dict never reads",
            )
        for key in sorted(read - saved):
            report(
                load,
                f"class {node.name}: load_state_dict reads key "
                f"{key!r} that state_dict never saves",
            )


class TelemetryNameRule(Rule):
    """REP005 — telemetry names come from the registry vocabulary.

    A literal name reaching ``counter``/``gauge``/``histogram``/
    ``point``/``span`` must match the ``subsystem.event`` dotted
    convention *and* be declared in :mod:`repro.obs.names` (exactly,
    or under a declared prefix family). f-strings are checked by
    their literal prefix; fully dynamic names resolve through the
    constants module and are out of static reach.
    """

    rule_id = "REP005"
    name = "telemetry-name"
    description = (
        "telemetry name literals must follow subsystem.event and be "
        "declared in repro.obs.names"
    )

    _METHODS = ("counter", "gauge", "histogram", "observe", "point", "span")

    def visit_Call(self, node: ast.Call, module, report) -> None:
        if not (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in self._METHODS
            and node.args
        ):
            return
        first = node.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            name = first.value
            if not _names.NAME_PATTERN.match(name):
                report(
                    first,
                    f"telemetry name {name!r} does not follow the "
                    "subsystem.event dotted convention",
                )
            elif not _names.is_known_name(name):
                report(
                    first,
                    f"telemetry name {name!r} is not declared in "
                    "repro.obs.names; add a constant there",
                )
        elif isinstance(first, ast.JoinedStr) and first.values:
            head = first.values[0]
            if isinstance(head, ast.Constant) and isinstance(
                head.value, str
            ):
                prefix = head.value
                if not any(
                    prefix.startswith(known) or known.startswith(prefix)
                    for known in _names.KNOWN_PREFIXES
                ):
                    report(
                        first,
                        f"telemetry name prefix {prefix!r} is not a "
                        "declared prefix family in repro.obs.names",
                    )


class BareExceptRule(Rule):
    """REP007 — no bare or blind exception handlers in critical paths.

    In ``core/``/``reliability/``/``serving/`` a swallowed exception
    turns a crash the recovery machinery is designed to survive into
    silent state corruption. ``except:`` is always flagged;
    ``except Exception``/``BaseException`` is allowed only when the
    handler re-raises.
    """

    rule_id = "REP007"
    name = "bare-except"
    description = (
        "core/reliability/serving code must not swallow exceptions "
        "with bare or blind except handlers"
    )

    @staticmethod
    def _reraises(handler: ast.ExceptHandler) -> bool:
        return any(
            isinstance(sub, ast.Raise) for sub in ast.walk(handler)
        )

    def visit_ExceptHandler(
        self, node: ast.ExceptHandler, module, report
    ) -> None:
        if node.type is None:
            report(node, "bare 'except:' swallows SystemExit and "
                          "KeyboardInterrupt; catch a specific error")
            return
        name = dotted_name(node.type)
        if name in ("Exception", "BaseException") and not self._reraises(
            node
        ):
            report(
                node,
                f"blind 'except {name}' without re-raise; catch the "
                "specific errors this block can actually handle",
            )


class MutableDefaultRule(Rule):
    """REP008 — no mutable defaults or float ``==`` in numeric code.

    A mutable default argument aliases state across calls (and across
    checkpoint/restore cycles); a float equality comparison against a
    non-trivial constant encodes a tolerance of exactly one ULP.
    Comparisons against the exact sentinels ``0.0``/``1.0``/``-1.0``
    (skip-zero fast paths, probability bounds) are allowed.
    """

    rule_id = "REP008"
    name = "mutable-default"
    description = (
        "ml/execution code must not use mutable default arguments or "
        "float equality comparisons"
    )

    _EXACT_SENTINELS = (0.0, 1.0, -1.0)
    _MUTABLE_CTORS = ("list", "dict", "set", "bytearray", "defaultdict")

    def _check_defaults(self, node, module, report) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if isinstance(default, (ast.List, ast.Dict, ast.Set)):
                report(
                    default,
                    f"mutable default argument in {node.name}(); use "
                    "None and construct inside the body",
                )
            elif (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in self._MUTABLE_CTORS
            ):
                report(
                    default,
                    f"mutable default argument "
                    f"({default.func.id}()) in {node.name}(); use "
                    "None and construct inside the body",
                )

    def visit_FunctionDef(self, node, module, report) -> None:
        self._check_defaults(node, module, report)

    def visit_AsyncFunctionDef(self, node, module, report) -> None:
        self._check_defaults(node, module, report)

    def visit_Compare(self, node: ast.Compare, module, report) -> None:
        operands = [node.left] + list(node.comparators)
        ops = node.ops
        for op, left, right in zip(ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            for side in (left, right):
                if (
                    isinstance(side, ast.Constant)
                    and isinstance(side.value, float)
                    and side.value not in self._EXACT_SENTINELS
                ):
                    report(
                        side,
                        f"float equality against {side.value!r}; use "
                        "math.isclose or an explicit tolerance",
                    )


#: Every shipped rule, in id order.
ALL_RULES: Tuple[Rule, ...] = (
    RawRandomRule(),
    StateDictKeysRule(),
    TelemetryNameRule(),
    BareExceptRule(),
    MutableDefaultRule(),
)

RULES_BY_ID: Dict[str, Rule] = {rule.rule_id: rule for rule in ALL_RULES}


def rules_for(ids: Sequence[str]) -> Tuple[Rule, ...]:
    """Resolve rule ids to instances, preserving id order."""
    from repro.analysis.base import ConfigError

    unknown = [i for i in ids if i not in RULES_BY_ID]
    if unknown:
        raise ConfigError(
            f"unknown rule id(s): {', '.join(sorted(unknown))}; "
            f"known rules are {', '.join(sorted(RULES_BY_ID))}"
        )
    wanted = set(ids)
    return tuple(r for r in ALL_RULES if r.rule_id in wanted)

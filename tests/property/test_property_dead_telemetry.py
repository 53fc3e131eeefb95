"""Generated property: REP014 flags exactly the dotted telemetry names
that no other module emits or references.

Each seed writes ``src/repro/obs/names.py`` with constants of three
kinds: full dotted names (``engine.rows_seen``, sometimes two sharing
a value), prefix names ending in ``.``, and non-dotted strings, with
an int constant between them. One to four modules beside it use some
constants, each use in one of four spellings:

* ``call``: the value as the string first argument of a method call;
* ``module``: ``names.X`` after ``from repro.obs import names``;
* ``member``: ``X`` after ``from repro.obs.names import X``;
* ``alias``: ``n.X`` after ``import repro.obs.names as n``.

Decoys that must *not* count as a use ride along: the value in a
bare-function call, as a method call's second argument, or in an
assignment, and a method call with the value inside ``names.py``
itself.

The reference is written here, from the generated uses alone: a
dotted constant is live when a spelling names it or a ``call`` passes
its value; every other dotted constant is dead. ``check_dead_telemetry``
must report exactly the dead ones, in name order, each at its own
assignment line.

Everything is drawn from a ``repro.utils.rng`` seed; a failure names
the seed and the ``pytest -k`` line that replays it.
"""

import ast

import pytest

from repro.analysis import ParsedModule, ProgramModel, check_dead_telemetry
from repro.utils.rng import ensure_rng

SEEDS = range(30)
NAMES = "src/repro/obs/names.py"
KINDS = ("dotted", "prefix", "plain")
SPELLINGS = ("call", "module", "member", "alias")
DECOYS = ("bare", "second", "assign", "self")
SUBSYSTEMS = ("core", "serving", "fleet", "ml")
EVENTS = ("rows_seen", "chunks", "retrain", "evicted", "p50", "lag_ms")


def generate(seed):
    """``(files, constants, uses, decoys)``: ``constants`` maps a name
    to ``(kind, value, line)``, ``uses`` is a list of ``(name,
    spelling)`` and ``decoys`` of ``(name, decoy)``."""
    rng = ensure_rng([seed, 14])
    constants, lines = {}, ['"""Telemetry vocabulary."""', ""]
    for index in range(int(rng.integers(3, 9))):
        kind = str(rng.choice(KINDS, p=(0.6, 0.2, 0.2)))
        sub, event = str(rng.choice(SUBSYSTEMS)), str(rng.choice(EVENTS))
        dotted = [value for k, value, _ in constants.values() if k == "dotted"]
        if kind == "dotted" and dotted and rng.random() < 0.15:
            value = str(rng.choice(dotted))  # two names, one value
        else:
            value = {
                "dotted": f"{sub}.{event}_{index}",
                "prefix": f"{sub}.",
                "plain": str(rng.choice([event, f"{event} {index}"])),
            }[kind]
        name = f"{kind.upper()}_{index}"
        lines.append(f"{name} = {value!r}")
        constants[name] = (kind, value, len(lines))
        if rng.random() < 0.3:
            lines.append(f"COUNT_{index} = {index}")
    uses, decoys, files = [], [], {}
    for module in range(int(rng.integers(1, 5))):
        path = f"src/repro/{rng.choice(SUBSYSTEMS)}/m{module}.py"
        header, body = set(), []
        for _ in range(int(rng.integers(0, 4))):
            name = str(rng.choice(sorted(constants)))
            spelling = str(rng.choice(SPELLINGS))
            value = constants[name][1]
            uses.append((name, spelling))
            if spelling == "call":
                body.append(f"    self.telemetry.emit({value!r})")
            elif spelling == "module":
                header.add("from repro.obs import names")
                body.append(f"    metrics.counter(names.{name}).inc()")
            elif spelling == "member":
                header.add(f"from repro.obs.names import {name}")
                body.append(f"    metrics.counter({name}).inc()")
            else:
                header.add("import repro.obs.names as n")
                body.append(f"    metrics.gauge(n.{name}).set(0)")
        decoy_lines = []
        for _ in range(int(rng.integers(0, 3))):
            name = str(rng.choice(sorted(constants)))
            decoy = str(rng.choice(DECOYS))
            value = constants[name][1]
            decoys.append((name, decoy))
            if decoy == "bare":
                body.append(f"    emit({value!r})")
            elif decoy == "second":
                body.append(f"    metrics.emit(1, {value!r})")
            elif decoy == "assign":
                decoy_lines.append(f"LABEL_{len(decoy_lines)} = {value!r}")
            else:
                lines.append(f"_SELF_{len(lines)} = _registry.emit({value!r})")
        source = sorted(header) + decoy_lines + ["", "def run(self, metrics):"]
        files[path] = "\n".join(source + (body or ["    pass"])) + "\n"
    files[NAMES] = "\n".join(lines) + "\n"
    return files, constants, uses, decoys


def reference(constants, uses):
    """The dead dotted constants, computed from the uses alone."""
    named = {name for name, spelling in uses if spelling != "call"}
    emitted = {constants[name][1] for name, spelling in uses if spelling == "call"}
    return sorted(
        name for name, (kind, value, _) in constants.items()
        if kind == "dotted" and name not in named and value not in emitted
    )


def check(seed):
    replay = (
        f"seed {seed}; replay: pytest "
        f"tests/property/test_property_dead_telemetry.py -k 'seed{seed}]'"
    )
    files, constants, uses, decoys = generate(seed)
    dead = reference(constants, uses)
    model = ProgramModel.build([
        ParsedModule(path, ast.parse(source))
        for path, source in sorted(files.items())
    ])
    findings = check_dead_telemetry(model)
    context = f"{replay}; findings {[f.render() for f in findings]}"
    assert [(f.rule_id, f.path, f.line, f.col) for f in findings] == [
        ("REP014", NAMES, constants[name][2], 0) for name in dead
    ], context
    for finding, name in zip(findings, dead):
        assert f"`{name}` (\"{constants[name][1]}\")" in finding.message, context
    return constants, uses, decoys, dead


@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
def test_dead_telemetry_findings_match_the_reference(seed):
    check(seed)


def test_the_generated_vocabularies_are_not_vacuous():
    """Over the seeds every kind, spelling and decoy is drawn; some
    trees are clean, some not, and some decoy names a constant that is
    dead, so counting a decoy as a use would change a finding."""
    kinds, spellings, decoy_kinds = set(), set(), set()
    counts = {"clean": 0, "dead": 0, "shared_value": 0, "decoy_on_dead": 0}
    for seed in SEEDS:
        constants, uses, decoys, dead = check(seed)
        kinds |= {kind for kind, _, _ in constants.values()}
        spellings |= {spelling for _, spelling in uses}
        decoy_kinds |= {decoy for _, decoy in decoys}
        counts["dead" if dead else "clean"] += 1
        values = [value for kind, value, _ in constants.values() if kind == "dotted"]
        counts["shared_value"] += len(values) != len(set(values))
        counts["decoy_on_dead"] += any(name in dead for name, _ in decoys)
    assert kinds == set(KINDS)
    assert spellings == set(SPELLINGS)
    assert decoy_kinds == set(DECOYS)
    assert all(counts.values()), counts

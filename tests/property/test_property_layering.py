"""Generated property: REP012 flags exactly the imports that break the
layer table, and a cycle exactly when the import graph has one.

Each seed writes a small tree under ``src/repro/<subsystem>/``: ranked
subsystems drawn from ``LAYERS`` (sometimes two that share
a layer), zero to two subsystems the table does not rank, and sometimes
the vocabulary modules ``obs/names.py`` and ``reliability/sites.py``.
Every module imports a few others, each import written in one of four
spellings and placed at top level, inside a function, or under
``if TYPE_CHECKING:``.

The reference is written here, from the generated imports alone: the
top-level cross-subsystem edges, edges into a vocabulary module
dropped; the layering findings are the edges whose ranked source layer
is not strictly above the ranked target's; a cycle exists iff a
Warshall closure over the (at most eight) subsystems has a node that
reaches itself; a vocabulary module's own top-level imports are
flagged. The rule must report exactly that, anchored at a witness
import line, and the same findings on a second run.

Everything is drawn from a ``repro.utils.rng`` seed; a failure names the
seed and the ``pytest -k`` line that replays it.
"""

import re
from types import SimpleNamespace

import pytest

from repro.analysis import LAYERS
from repro.analysis import lint as lint_tree
from repro.utils.rng import ensure_rng
from tests.analysis.corpus import write_tree

SEEDS = range(40)
PLACEMENTS = ("top", "function", "type_checking")
#: Subsystems the table ranks that can be written as a package.
RANKED = tuple(
    name for name in LAYERS if name not in ("repro", "__main__")
)
UNRANKED = ("alpha", "omega")
VOCABULARY = {
    "repro.obs.names": "src/repro/obs/names.py",
    "repro.reliability.sites": "src/repro/reliability/sites.py",
}

LAYERING_RE = re.compile(r"^layering violation: `(\w+)` .* imports `(\w+)`")
CYCLE_RE = re.compile(r"^subsystem import cycle: (.+?) \(edge")


def subsystem(module):
    return module.split(".")[1]


def import_line(target, form, alias):
    """One import of module ``target`` (``repro.<sub>.<mod>``)."""
    package, _, leaf = target.rpartition(".")
    return (
        f"from {package} import {leaf}",
        f"import {target}",
        f"from {target} import VALUE",
        f"import {target} as {alias}",
    )[form]


def generate(seed):
    """A tree and its imports: ``(files, imports)``, each import a
    ``(importer module, path, line, target module, placement)``."""
    rng = ensure_rng([seed, 12])
    ranked = [str(s) for s in rng.choice(RANKED, int(rng.integers(2, 5)), replace=False)]
    if rng.random() < 0.4:
        # A second subsystem on a layer already drawn, when one is left.
        layer = LAYERS[ranked[0]]
        siblings = [
            s for s in RANKED
            if LAYERS[s] == layer and s not in ranked
        ]
        if siblings:
            ranked[-1] = str(rng.choice(siblings))
    unranked = list(UNRANKED[: int(rng.integers(0, 3))])
    modules = [
        f"repro.{sub}.m{index}"
        for sub in ranked + unranked
        for index in range(int(rng.integers(1, 3)))
    ]
    modules += [name for name in VOCABULARY if rng.random() < 0.5]
    files, imports = {}, []
    for module in modules:
        path = VOCABULARY.get(module) or (
            "src/" + module.replace(".", "/") + ".py"
        )
        drawn = {placement: [] for placement in PLACEMENTS}
        for _ in range(int(rng.integers(0, 4))):
            target = str(rng.choice([m for m in modules if m != module]))
            drawn[str(rng.choice(PLACEMENTS))].append(
                (target, int(rng.integers(0, 4)))
            )
        lines = ["VALUE = 1"]

        def emit(text, target, placement):
            lines.append(text)
            imports.append((module, path, len(lines), target, placement))

        for target, form in drawn["top"]:
            emit(import_line(target, form, f"a{len(lines)}"), target, "top")
        if drawn["type_checking"]:
            lines += ["from typing import TYPE_CHECKING", "if TYPE_CHECKING:"]
            for target, form in drawn["type_checking"]:
                text = import_line(target, form, f"a{len(lines)}")
                emit("    " + text, target, "type_checking")
        if drawn["function"]:
            lines.append("def load():")
            for target, form in drawn["function"]:
                text = import_line(target, form, f"a{len(lines)}")
                emit("    " + text, target, "function")
            lines.append("    return VALUE")
        files[path] = "\n".join(lines) + "\n"
    return files, imports


def reference(imports):
    """What REP012 must report, computed from the imports alone."""
    edges = {}  # (src, dst) -> witness (path, line) set
    vocabulary = set()
    for importer, path, line, target, placement in imports:
        if placement != "top":
            continue
        if importer in VOCABULARY:
            vocabulary.add((path, line))
        src, dst = subsystem(importer), subsystem(target)
        if src != dst and target not in VOCABULARY:
            edges.setdefault((src, dst), set()).add((path, line))
    layers = LAYERS
    layering = {
        pair
        for pair in edges
        if pair[0] in layers
        and pair[1] in layers
        and layers[pair[0]] <= layers[pair[1]]
    }
    nodes = sorted({node for pair in edges for node in pair})
    assert len(nodes) <= 8
    reach = {(a, b) for a, b in edges}
    for k in nodes:  # Warshall
        for i in nodes:
            for j in nodes:
                if (i, k) in reach and (k, j) in reach:
                    reach.add((i, j))
    cyclic = any((node, node) in reach for node in nodes)
    return edges, layering, cyclic, vocabulary


def lint(tmp_path, files):
    return SimpleNamespace(findings=lint_tree(write_tree(tmp_path, files)))


def check(seed, tmp_path):
    replay = (
        f"seed {seed}; replay: pytest "
        f"tests/property/test_property_layering.py -k 'seed{seed}]'"
    )
    files, imports = generate(seed)
    edges, layering, cyclic, vocabulary = reference(imports)
    result = lint(tmp_path, files)
    context = f"{replay}; findings {[f.render() for f in result.findings]}"
    found_layering, found_vocabulary, cycles = set(), set(), []
    for finding in result.findings:
        anchor = (finding.path, finding.line)
        match = LAYERING_RE.match(finding.message)
        if match is not None:
            pair = match.groups()
            assert anchor in edges.get(pair, ()), context
            found_layering.add(pair)
        elif finding.message.startswith("vocabulary module"):
            found_vocabulary.add(anchor)
        else:
            match = CYCLE_RE.match(finding.message)
            assert match is not None, context
            cycle = match.group(1).split(" -> ")
            assert anchor in edges.get((cycle[0], cycle[1]), ()), context
            cycles.append(cycle)
    assert found_layering == layering, context
    assert found_vocabulary == vocabulary, context
    assert len(cycles) == int(cyclic), context
    for cycle in cycles:
        assert cycle[0] == cycle[-1] and len(cycle) > 2, context
        for pair in zip(cycle, cycle[1:]):
            assert pair in edges, context
    again = lint(tmp_path, files)
    assert again.findings == result.findings, replay
    return imports, layering, cyclic, vocabulary


@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
def test_layering_findings_match_the_reference(seed, tmp_path):
    check(seed, tmp_path)


def test_the_generated_trees_are_not_vacuous(tmp_path):
    """Over the seeds every placement is drawn, and the reference
    holds findings of every kind as well as clean trees."""
    placements, kinds = set(), {"layering": 0, "cycle": 0, "acyclic": 0,
                                "vocabulary": 0, "same_layer": 0}
    for seed in SEEDS:
        imports, layering, cyclic, vocabulary = check(seed, tmp_path / str(seed))
        placements |= {placement for *_, placement in imports}
        kinds["layering"] += bool(layering)
        kinds["cycle" if cyclic else "acyclic"] += 1
        kinds["vocabulary"] += bool(vocabulary)
        kinds["same_layer"] += any(
            LAYERS[a] == LAYERS[b]
            for a, b in layering
        )
    assert placements == set(PLACEMENTS)
    assert all(kinds.values()), kinds

"""Cost-attribution profiling: fold a span stream into a tree.

The dual-clock tracer emits one flat event per finished span, carrying
the names of its enclosing spans (``stack``, outermost first). This
module folds that stream into a hierarchical **profile tree** — the
per-run answer to "where did the cost go":

* every node aggregates one call path (``platform.observe`` →
  ``engine.train_step`` → …) with call count, *cumulative* and *self*
  totals on both clocks (virtual cost units and wall seconds);
* the virtual-clock side is fully deterministic, so two identical-seed
  runs produce byte-identical trees — :func:`profile_digest` hashes
  exactly that deterministic part, giving the benchmark baseline store
  a cheap "did the cost shape change at all" fingerprint;
* an aligned text rendering, the "cost by layer" section of ``repro
  obs DIR``.

Spans from different deployments may share one trace (several runs
instrumented through one :class:`~repro.obs.telemetry.Telemetry`);
folding only uses durations and stacks, never absolute timestamps, so
aggregation across runs stays well-defined.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.obs.sink import EventDict, load_jsonl
from repro.utils.text import _align


@dataclass
class ProfileNode:
    """Aggregate of one call path in the profile tree."""

    name: str
    count: int = 0
    #: Total virtual-clock cost of spans on this path, including time
    #: spent in child spans.
    cum_cost: float = 0.0
    cum_wall: float = 0.0
    children: Dict[str, "ProfileNode"] = field(default_factory=dict)

    @property
    def self_cost(self) -> float:
        """Cumulative cost minus the cost attributed to children."""
        return self.cum_cost - sum(
            child.cum_cost for child in self.children.values()
        )

    @property
    def self_wall(self) -> float:
        return self.cum_wall - sum(
            child.cum_wall for child in self.children.values()
        )

    def child(self, name: str) -> "ProfileNode":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = ProfileNode(name)
        return node

    def walk(
        self, depth: int = 0
    ) -> Iterable[Tuple[int, "ProfileNode"]]:
        """Yield ``(depth, node)`` pairs, children by descending cost."""
        yield depth, self
        ordered = sorted(
            self.children.values(),
            key=lambda child: (-child.cum_cost, child.name),
        )
        for node in ordered:
            yield from node.walk(depth + 1)


#: Name of the synthetic root every profile tree hangs off.
ROOT_NAME = "run"


def build_profile(events: Iterable[EventDict]) -> ProfileNode:
    """Fold span events into a profile tree rooted at ``run``.

    Only ``span`` events contribute; each adds its duration to the
    node addressed by ``stack + [name]``. Traces written before the
    ``stack`` field existed fold flat (every span a child of the
    root), which degrades attribution but never errors. The root
    accumulates the totals of its direct children, so percentages are
    always computed against a complete denominator.
    """
    root = ProfileNode(ROOT_NAME)
    for event in events:
        if event.get("kind") != "span":
            continue
        node = root
        for ancestor in event.get("stack") or ():
            node = node.child(str(ancestor))
        node = node.child(str(event.get("name", "?")))
        node.count += 1
        node.cum_cost += float(event.get("dur", 0.0))
        node.cum_wall += float(event.get("wall_s", 0.0))
    root.cum_cost = sum(c.cum_cost for c in root.children.values())
    root.cum_wall = sum(c.cum_wall for c in root.children.values())
    root.count = sum(c.count for c in root.children.values())
    return root


def profile_trace(path) -> ProfileNode:
    """Fold a JSONL trace file into a profile tree."""
    return build_profile(load_jsonl(path))


def subsystem_totals(root: ProfileNode) -> Dict[str, Dict[str, float]]:
    """Self-cost rollup by owning subsystem (the name's first segment).

    Self (not cumulative) totals are summed so nested spans from
    different subsystems never double-count a cost unit; the values
    add up to the root's cumulative cost.
    """
    totals: Dict[str, Dict[str, float]] = {}
    for depth, node in root.walk():
        if depth == 0:
            continue
        subsystem = node.name.split(".", 1)[0]
        entry = totals.setdefault(
            subsystem, {"count": 0.0, "self_cost": 0.0, "self_wall": 0.0}
        )
        entry["count"] += node.count
        entry["self_cost"] += node.self_cost
        entry["self_wall"] += node.self_wall
    return totals


def profile_digest(root: ProfileNode) -> str:
    """SHA-256 over the deterministic (virtual-clock) half of the tree.

    Counts and cost totals only — wall times are noise. Children are
    serialized name-sorted and floats via ``repr``, so the digest is
    byte-stable across runs, platforms, and dict orderings; two
    identical-seed runs of a deterministic workload must collide.
    """

    def canonical(node: ProfileNode) -> List[object]:
        return [
            node.name,
            node.count,
            repr(node.cum_cost),
            [canonical(c) for _, c in sorted(node.children.items())],
        ]

    blob = json.dumps(canonical(root), separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def format_profile(root: ProfileNode) -> str:
    """Aligned text tree: per-path count, cum/self cost, %, wall."""
    total = root.cum_cost
    rows: List[Sequence[str]] = [
        ("path", "count", "cum", "self", "cum%", "wall_s")
    ]
    for depth, node in root.walk():
        share = node.cum_cost / total if total > 0.0 else 0.0
        rows.append(
            (
                "  " * depth + node.name,
                str(node.count),
                f"{node.cum_cost:.4f}",
                f"{node.self_cost:.4f}",
                f"{share * 100:5.1f}%",
                f"{node.cum_wall:.3f}",
            )
        )
    lines = _align(rows)
    subsystems = subsystem_totals(root)
    if subsystems:
        lines.append("")
        lines.append("self cost by subsystem:")
        ordered = sorted(
            subsystems.items(), key=lambda kv: -kv[1]["self_cost"]
        )
        for name, entry in ordered:
            share = entry["self_cost"] / total if total > 0.0 else 0.0
            lines.append(
                f"  {name:<12} {entry['self_cost']:>12.4f} "
                f"({share * 100:5.1f}%)  wall={entry['self_wall']:.3f}s"
            )
    lines.append("")
    lines.append(f"profile digest: {profile_digest(root)}")
    return "\n".join(lines)

"""The provenance ledger — end-to-end data/model lineage.

:class:`LineageLedger` is an append-only, content-addressed record of
everything that flowed into every deployed model, stamped on the
run's virtual clock. The graph has five node kinds:

* ``chunk`` — one ingested raw chunk: its stream timestamp plus a
  SHA-256 content digest of the table;
* ``component`` — one pipeline-component *fingerprint* (code + config
  + fitted-statistics digests, see
  :mod:`repro.pipeline.fingerprint`); content-addressed, so a
  component that has not changed between trainings stays one node;
* ``training`` — one SGD burst: which chunk set fed it and with what
  sampling weights, under which component fingerprints;
* ``model`` — one registry version, linked to the training that
  produced it and to its parent version;
* ``incident`` — a monitor incident, linked to the model version
  that was live when the rule fired.

Edges (``fed``, ``used``, ``produced``, ``derived_from``,
``implicated``) carry virtual timestamps, so the whole graph is
byte-reproducible across same-seed runs and across checkpoint
recovery (the ledger rides the ``"lineage"`` checkpoint key; its entry
log is written incrementally, see :mod:`repro.reliability.checkpoint`).

Two queries make the graph useful operationally: :meth:`blame` walks
*backward* from a model version to the chunks that trained it
(aggregating sampling weights over the derivation chain), and
:meth:`trace` walks *forward* from a chunk to every model version and
incident downstream of it — the quarantine-by-provenance primitive of
ROADMAP item 5, over the same fingerprints ROADMAP item 3's
cache-aware re-materialization keys on.

This module sits in the obs layer: it never imports data/pipeline/
serving code. Recorders pass plain ids, digests, and numbers.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.exceptions import ValidationError
from repro.obs import names
from repro.obs.metrics import NULL_METRICS
from repro.obs.trace import NULL_TRACER

#: Version stamp of the ``lineage.json`` payload / checkpoint state.
LINEAGE_SCHEMA = 1

#: Node kinds, in the order summaries render them.
NODE_KINDS = ("chunk", "component", "training", "model", "incident")

#: Edge kinds: chunk --fed--> training --produced--> model,
#: component --used--> training, parent --derived_from--> child,
#: model --implicated--> incident. All edges point *downstream* (in
#: the direction data flowed), so forward traces follow out-edges and
#: blame walks in-edges.
EDGE_KINDS = ("fed", "used", "produced", "derived_from", "implicated")


def lineage_digest(entries: Sequence[Dict[str, Any]]) -> str:
    """SHA-256 over the canonical JSON rendering of the entry log.

    Same contract as :func:`repro.obs.incident.health_digest`: sorted
    keys, compact separators, ``allow_nan=False`` so a stray NaN fails
    loudly instead of serializing unportably.
    """
    text = json.dumps(
        {"schema": LINEAGE_SCHEMA, "entries": list(entries)},
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class LineageLedger:
    """Append-only provenance graph for one run (or one fleet).

    The ledger is attached to a :class:`~repro.obs.telemetry.Telemetry`
    bundle via :meth:`Telemetry.attach_ledger`; the platform, registry,
    and monitor then record into it through plain-data methods. Every
    append is stamped with the bundle's virtual clock and emits a
    ``lineage.node`` trace point, so the ledger's growth is itself
    observable.
    """

    def __init__(self) -> None:
        self._entries: List[Dict[str, Any]] = []
        #: node id -> index into the entry log.
        self._nodes: Dict[str, int] = {}
        #: node id -> indexes of out-edges / in-edges.
        self._out: Dict[str, List[int]] = {}
        self._in: Dict[str, List[int]] = {}
        #: registry name -> live model node id.
        self._live: Dict[str, str] = {}
        self._next_training = 0
        self._next_incident = 0
        self._tracer = NULL_TRACER
        self._metrics = NULL_METRICS

    # ------------------------------------------------------------------
    def bind(self, tracer=None, metrics=None) -> None:
        """Bind the run's tracer/metrics. Entries are stamped with the
        tracer's clock as it is *when they are appended*: a ledger is
        attached before the engine that owns the clock exists."""
        if tracer is not None:
            self._tracer = tracer
        if metrics is not None:
            self._metrics = metrics

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def entries(self) -> List[Dict[str, Any]]:
        """The append-only entry log (do not mutate)."""
        return self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def has_node(self, node_id: str) -> bool:
        return node_id in self._nodes

    def node(self, node_id: str) -> Dict[str, Any]:
        """The node entry for ``node_id`` (KeyError when absent)."""
        return self._entries[self._nodes[node_id]]

    def nodes(self, kind: Optional[str] = None) -> List[Dict[str, Any]]:
        """All node entries, optionally filtered by kind, in seq order."""
        return [
            self._entries[index]
            for node_id, index in sorted(
                self._nodes.items(), key=lambda item: item[1]
            )
            if kind is None or self._entries[index]["kind"] == kind
        ]

    def counts(self) -> Dict[str, int]:
        """Node counts per kind plus the edge total."""
        result = {kind: 0 for kind in NODE_KINDS}
        edges = 0
        for entry in self._entries:
            if entry["e"] == "node":
                result[entry["kind"]] += 1
            elif entry["e"] == "edge":
                edges += 1
        result["edges"] = edges
        return result

    def digest(self) -> str:
        """Content digest of the whole ledger (see :func:`lineage_digest`)."""
        return lineage_digest(self._entries)

    def live_version(self, registry: Optional[str] = None) -> Optional[str]:
        """Live model node id for ``registry`` (or the sole registry)."""
        if registry is not None:
            return self._live.get(registry)
        if len(self._live) == 1:
            return next(iter(self._live.values()))
        return None

    # ------------------------------------------------------------------
    # Appends (all idempotence is by node id)
    # ------------------------------------------------------------------
    def _append(self, entry: Dict[str, Any]) -> Dict[str, Any]:
        entry["seq"] = len(self._entries)
        self._entries.append(entry)
        index = entry["seq"]
        if entry["e"] == "node":
            self._nodes[entry["id"]] = index
            self._metrics.counter(names.LINEAGE_NODES).inc()
            self._tracer.point(
                names.LINEAGE_NODE, kind=entry["kind"], id=entry["id"]
            )
        elif entry["e"] == "edge":
            self._out.setdefault(entry["src"], []).append(index)
            self._in.setdefault(entry["dst"], []).append(index)
            self._metrics.counter(names.LINEAGE_EDGES).inc()
        return entry

    def _node(
        self, kind: str, node_id: str, attrs: Dict[str, Any]
    ) -> str:
        self._append(
            {
                "e": "node",
                "kind": kind,
                "id": node_id,
                "t": self._tracer.clock(),
                "attrs": attrs,
            }
        )
        return node_id

    def _edge(
        self,
        kind: str,
        src: str,
        dst: str,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        entry: Dict[str, Any] = {
            "e": "edge",
            "kind": kind,
            "src": src,
            "dst": dst,
            "t": self._tracer.clock(),
        }
        if attrs:
            entry["attrs"] = attrs
        self._append(entry)

    @staticmethod
    def chunk_id(timestamp: int, scope: Optional[str] = None) -> str:
        """Node id of a chunk (scoped per tenant in a fleet)."""
        if scope:
            return f"chunk:{scope}:{timestamp}"
        return f"chunk:{timestamp}"

    def record_chunk(
        self,
        timestamp: int,
        digest: str,
        rows: int,
        scope: Optional[str] = None,
    ) -> str:
        """Record one ingested raw chunk; idempotent per id."""
        node_id = self.chunk_id(timestamp, scope)
        if node_id in self._nodes:
            return node_id
        return self._node(
            "chunk",
            node_id,
            {"timestamp": timestamp, "digest": digest, "rows": rows},
        )

    def record_component(self, fingerprint: Dict[str, Any]) -> str:
        """Record one component fingerprint; content-addressed.

        ``fingerprint`` is the dict produced by
        :func:`repro.pipeline.fingerprint.component_fingerprint` —
        its ``digest`` field becomes the node identity, so an
        unchanged component maps to the same node across trainings.
        """
        node_id = f"comp:{fingerprint['digest'][:12]}"
        if node_id in self._nodes:
            return node_id
        return self._node("component", node_id, dict(fingerprint))

    def record_training(
        self,
        chunks: Sequence[Tuple[str, float]],
        components: Sequence[str],
        rows: int,
        objective: float,
        scope: Optional[str] = None,
    ) -> str:
        """Record one SGD burst.

        ``chunks`` is ``[(chunk_node_id, weight), ...]`` — the weight
        is the chunk's fraction of the training batch's rows, the
        number blame reports aggregate. ``components`` are the
        fingerprint node ids active during the burst.
        """
        node_id = f"train:{self._next_training}"
        self._next_training += 1
        attrs: Dict[str, Any] = {"rows": rows, "objective": objective}
        if scope:
            attrs["scope"] = scope
        self._node("training", node_id, attrs)
        for chunk_node, weight in chunks:
            self._edge(
                "fed", chunk_node, node_id, {"weight": weight}
            )
        for component_node in components:
            self._edge("used", component_node, node_id)
        return node_id

    @staticmethod
    def model_id(registry: str, version: str) -> str:
        return f"model:{registry}:{version}"

    def record_model(
        self,
        registry: str,
        version: str,
        checksum: str,
        parent: Optional[str] = None,
        training: Optional[str] = None,
    ) -> str:
        """Record one registered model version.

        ``parent`` is the parent *version string* in the same
        registry; ``training`` is the producing training node id.
        """
        node_id = self.model_id(registry, version)
        if node_id in self._nodes:
            return node_id
        self._node(
            "model",
            node_id,
            {
                "registry": registry,
                "version": version,
                "checksum": checksum,
            },
        )
        if training is not None and training in self._nodes:
            self._edge("produced", training, node_id)
        if parent is not None:
            parent_node = self.model_id(registry, parent)
            if parent_node in self._nodes:
                self._edge("derived_from", parent_node, node_id)
        return node_id

    def record_transition(
        self, registry: str, version: str, event: str
    ) -> None:
        """Record a lifecycle transition (promote/rollback/reject/gc).

        Promotions and rollbacks update the live-version map the
        monitor reads when stamping incident evidence.
        """
        node_id = self.model_id(registry, version)
        self._append(
            {
                "e": "event",
                "kind": event,
                "id": node_id,
                "t": self._tracer.clock(),
            }
        )
        if event in ("promote", "rollback"):
            self._live[registry] = node_id

    def record_incident(
        self,
        rule: str,
        signal: str,
        model: Optional[str] = None,
    ) -> str:
        """Record a fired monitor incident, implicating ``model``."""
        node_id = f"incident:{self._next_incident}"
        self._next_incident += 1
        attrs: Dict[str, Any] = {"rule": rule, "signal": signal}
        self._node("incident", node_id, attrs)
        if model is not None and model in self._nodes:
            self._edge("implicated", model, node_id)
        return node_id

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def resolve(self, ref: str) -> str:
        """Resolve a user-supplied node reference.

        Accepts a full node id, a bare version string (``v0003``), or
        a bare chunk timestamp (``17``). Ambiguous bare references
        (e.g. ``v0001`` when several registries hold one) raise with
        the candidate list.
        """
        if ref in self._nodes:
            return ref
        candidates = sorted(
            node_id
            for node_id in self._nodes
            if node_id.endswith(f":{ref}")
        )
        if len(candidates) == 1:
            return candidates[0]
        if not candidates:
            raise ValidationError(
                f"no lineage node matches {ref!r}"
            )
        raise ValidationError(
            f"{ref!r} is ambiguous; one of: {', '.join(candidates)}"
        )

    def _in_edges(
        self, node_id: str, kind: Optional[str] = None
    ) -> List[Dict[str, Any]]:
        return [
            self._entries[index]
            for index in self._in.get(node_id, [])
            if kind is None or self._entries[index]["kind"] == kind
        ]

    def _out_edges(
        self, node_id: str, kind: Optional[str] = None
    ) -> List[Dict[str, Any]]:
        return [
            self._entries[index]
            for index in self._out.get(node_id, [])
            if kind is None or self._entries[index]["kind"] == kind
        ]

    def blame(self, version: str) -> Dict[str, Any]:
        """Which chunks (with what weights) trained ``version``?

        Walks the ``derived_from`` chain back to the root, collects
        every ``produced`` training event along it, and aggregates
        each contributing chunk's sampling weights. The result lists
        chunks by descending aggregate weight — the first entries are
        the data most responsible for the model.
        """
        model_node = self.resolve(version)
        entry = self.node(model_node)
        if entry["kind"] != "model":
            raise ValidationError(
                f"blame expects a model version, got {model_node!r}"
            )
        chain: List[str] = []
        cursor: Optional[str] = model_node
        while cursor is not None:
            chain.append(cursor)
            parents = self._in_edges(cursor, "derived_from")
            cursor = parents[0]["src"] if parents else None
        trainings: List[str] = []
        weights: Dict[str, float] = {}
        events: Dict[str, int] = {}
        components: Dict[str, int] = {}
        for model in chain:
            for produced in self._in_edges(model, "produced"):
                training = produced["src"]
                trainings.append(training)
                for fed in self._in_edges(training, "fed"):
                    chunk = fed["src"]
                    weight = fed.get("attrs", {}).get("weight", 0.0)
                    weights[chunk] = weights.get(chunk, 0.0) + weight
                    events[chunk] = events.get(chunk, 0) + 1
                for used in self._in_edges(training, "used"):
                    comp = used["src"]
                    components[comp] = components.get(comp, 0) + 1
        chunks = [
            {
                "chunk": chunk,
                "weight": weights[chunk],
                "events": events[chunk],
                "digest": self.node(chunk)["attrs"]["digest"],
            }
            for chunk in sorted(
                weights, key=lambda c: (-weights[c], c)
            )
        ]
        return {
            "version": model_node,
            "derivation": chain,
            "trainings": sorted(trainings),
            "components": sorted(components),
            "chunks": chunks,
        }

    def trace(self, chunk: str) -> Dict[str, Any]:
        """Everything downstream of ``chunk``: trainings, models,
        incidents — the quarantine-by-provenance query."""
        chunk_node = self.resolve(chunk)
        entry = self.node(chunk_node)
        if entry["kind"] != "chunk":
            raise ValidationError(
                f"trace expects a chunk, got {chunk_node!r}"
            )
        downstream: Dict[str, List[str]] = {
            "training": [],
            "model": [],
            "incident": [],
        }
        seen = {chunk_node}
        frontier = [chunk_node]
        while frontier:
            node_id = frontier.pop()
            for edge in self._out_edges(node_id):
                target = edge["dst"]
                if target in seen:
                    continue
                seen.add(target)
                kind = self.node(target)["kind"]
                if kind in downstream:
                    downstream[kind].append(target)
                frontier.append(target)
        return {
            "chunk": chunk_node,
            "digest": entry["attrs"]["digest"],
            "trainings": sorted(downstream["training"]),
            "models": sorted(downstream["model"]),
            "incidents": sorted(downstream["incident"]),
        }

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def payload(self) -> Dict[str, Any]:
        """The canonical ``lineage.json`` payload (digest-stamped)."""
        return {
            "schema": LINEAGE_SCHEMA,
            "digest": self.digest(),
            "counts": self.counts(),
            "live": dict(sorted(self._live.items())),
            "entries": list(self._entries),
        }

    def write(self, path: Union[str, Path]) -> Dict[str, Any]:
        """Write ``lineage.json``; returns the payload.

        Serialization is canonical (sorted keys, fixed separators,
        trailing newline), so identical-seed runs produce
        byte-identical files.
        """
        payload = self.payload()
        target = Path(path)
        if target.parent != Path("."):
            target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        self._tracer.point(
            names.LINEAGE_EXPORTED,
            entries=len(self._entries),
            digest=payload["digest"],
        )
        return payload

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def head_state(self) -> Dict[str, Any]:
        """The mutable state beside the entry log. A checkpoint takes
        this and the live :attr:`entries` (append-only, so it writes
        only what was appended since the last one)."""
        return {
            "schema": LINEAGE_SCHEMA,
            "next_training": self._next_training,
            "next_incident": self._next_incident,
            "live": dict(self._live),
        }

    def state_dict(self) -> Dict[str, Any]:
        """JSON-safe mutable state — the entry log is the whole truth;
        the node/edge indexes are rebuilt on load."""
        return {
            **self.head_state(),
            "entries": [dict(entry) for entry in self._entries],
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        if state.get("schema") != LINEAGE_SCHEMA:
            raise ValidationError(
                f"lineage state schema {state.get('schema')!r} != "
                f"{LINEAGE_SCHEMA}"
            )
        self._entries = [dict(entry) for entry in state["entries"]]
        self._next_training = int(state["next_training"])
        self._next_incident = int(state["next_incident"])
        self._live = dict(state["live"])
        self._reindex()

    def _reindex(self) -> None:
        self._nodes = {}
        self._out = {}
        self._in = {}
        for index, entry in enumerate(self._entries):
            if entry["e"] == "node":
                self._nodes[entry["id"]] = index
            elif entry["e"] == "edge":
                self._out.setdefault(entry["src"], []).append(index)
                self._in.setdefault(entry["dst"], []).append(index)

    def __repr__(self) -> str:
        counts = self.counts()
        return (
            f"LineageLedger(chunks={counts['chunk']}, "
            f"trainings={counts['training']}, "
            f"models={counts['model']}, edges={counts['edges']})"
        )


# ----------------------------------------------------------------------
# Rendering (CLI)
# ----------------------------------------------------------------------
def format_lineage(ledger: LineageLedger) -> str:
    """Render the ledger summary for ``repro obs lineage show``."""
    counts = ledger.counts()
    lines = ["provenance ledger"]
    for kind in NODE_KINDS:
        lines.append(f"  {kind + 's':<12} {counts[kind]}")
    lines.append(f"  {'edges':<12} {counts['edges']}")
    live = {
        registry: node
        for registry, node in sorted(ledger._live.items())
    }
    for registry, node in live.items():
        lines.append(f"  live[{registry}] = {node}")
    lines.append(f"  digest       {ledger.digest()[:16]}...")
    return "\n".join(lines)


def format_blame(report: Dict[str, Any], limit: int = 10) -> str:
    """Render a :meth:`LineageLedger.blame` report."""
    lines = [
        f"blame {report['version']}",
        f"  derivation: {' <- '.join(report['derivation'])}",
        f"  trainings:  {len(report['trainings'])}"
        f"  components: {len(report['components'])}",
        f"  contributing chunks ({len(report['chunks'])}):",
    ]
    for row in report["chunks"][:limit]:
        lines.append(
            f"    {row['chunk']:<18} weight={row['weight']:.4f} "
            f"events={row['events']} "
            f"digest={row['digest'][:12]}"
        )
    hidden = len(report["chunks"]) - limit
    if hidden > 0:
        lines.append(f"    ... {hidden} more")
    return "\n".join(lines)


def format_trace(report: Dict[str, Any]) -> str:
    """Render a :meth:`LineageLedger.trace` report."""
    lines = [
        f"trace {report['chunk']} "
        f"(digest={report['digest'][:12]})",
        f"  trainings: {', '.join(report['trainings']) or '-'}",
        f"  models:    {', '.join(report['models']) or '-'}",
        f"  incidents: {', '.join(report['incidents']) or '-'}",
    ]
    return "\n".join(lines)


def load_lineage(path: Union[str, Path]) -> LineageLedger:
    """Rebuild a ledger from an exported ``lineage.json``.

    Verifies the stamped digest against the entries, so a truncated
    or hand-edited export fails loudly.
    """
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if payload.get("schema") != LINEAGE_SCHEMA:
        raise ValidationError(
            f"lineage schema {payload.get('schema')!r} != "
            f"{LINEAGE_SCHEMA}"
        )
    entries = payload.get("entries", [])
    stamped = payload.get("digest")
    actual = lineage_digest(entries)
    if stamped != actual:
        raise ValidationError(
            f"lineage digest mismatch: stamped {stamped!r}, "
            f"computed {actual!r}"
        )
    ledger = LineageLedger()
    trainings = sum(
        1
        for entry in entries
        if entry.get("e") == "node" and entry.get("kind") == "training"
    )
    incidents = sum(
        1
        for entry in entries
        if entry.get("e") == "node" and entry.get("kind") == "incident"
    )
    ledger.load_state_dict(
        {
            "schema": LINEAGE_SCHEMA,
            "entries": entries,
            "next_training": trainings,
            "next_incident": incidents,
            "live": payload.get("live", {}),
        }
    )
    return ledger

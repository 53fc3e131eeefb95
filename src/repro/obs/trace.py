"""Span-based tracing over the platform's two clocks.

A :class:`Tracer` produces structured event dicts (one per span, point
or metrics snapshot; :data:`EVENT_FIELDS` is the schema), built once
and handed to the sink chain as they are. Spans measure both clocks at
once:

* the **virtual clock** — cumulative cost units from the deployment's
  :class:`~repro.execution.cost.CostTracker`, the deterministic time
  base every experiment reports;
* the **wall clock** — real elapsed seconds, for sanity checks and
  hardware-level profiling.

Usage::

    with tracer.span("proactive_training", chunk=i) as span:
        outcome = run_training()
        span.set(rows=outcome.rows)

    tracer.point("scheduler.decision", chunk=i, fired=True)

A span is one operation of the layer that opens it — a chunk's pass, a
training, the online update of a chunk — never one row of it: an event
costs a dict, a ring slot, an encoded line and a monitor lookup, so an
attached run pays per chunk. What an operation iterates over goes in
its attributes (``engine.train_step``: ``steps``, ``values``).

Disabled tracing is a first-class mode: :class:`NullTracer` returns a
shared no-op span, so an un-instrumented run pays one no-op call and
the ``with`` protocol per span site (``benchmarks/e2e``'s
``url_continuous`` is timed with exactly that).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional

from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs import names
from repro.obs.sink import EventSink

#: JSONL event schema, shared by every sink and the ``repro obs`` CLI:
#: ``seq``  — monotonically increasing event number within the trace;
#: ``kind`` — ``"span"`` | ``"point"`` | ``"metrics"``;
#: ``name`` — dotted event name (``engine.predict``, ``drift.signal``);
#: ``t``    — virtual-clock timestamp (cost units) at span start /
#:            point emission;
#: ``dur``  — virtual-clock duration of the span (0 for points);
#: ``wall_s`` — wall-clock duration in seconds (0 for points);
#: ``stack``  — names of the spans enclosing this event, outermost
#:              first (empty for top-level events); the cost-
#:              attribution profiler folds span streams into a tree
#:              along this field;
#: ``attrs``  — free-form attributes (chunk index, values scanned, …).
EVENT_FIELDS = (
    "seq", "kind", "name", "t", "dur", "wall_s", "stack", "attrs",
)


class Span:
    """Context manager measuring one traced operation."""

    __slots__ = ("_tracer", "name", "attrs", "_t0", "_w0", "_stack")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self._t0 = 0.0
        self._w0 = 0.0
        self._stack: tuple = ()

    def set(self, **attrs: object) -> None:
        """Attach attributes discovered while the span is open."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        self._stack = self._tracer.enter_span(self.name)
        self._t0 = self._tracer.clock()
        self._w0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        dur = self._tracer.clock() - self._t0
        wall_s = time.perf_counter() - self._w0
        self._tracer.exit_span()
        self._tracer.finish_span(
            self.name,
            self.attrs,
            started_at=self._t0,
            dur=dur,
            wall_s=wall_s,
            stack=self._stack,
        )


class _NullSpan:
    """Shared do-nothing span returned by :class:`NullTracer`."""

    __slots__ = ()

    def set(self, **attrs: object) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


NULL_SPAN = _NullSpan()


class Tracer:
    """Emits span and point events against a virtual clock.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current virtual time
        (typically the engine's ``total_cost``); defaults to a
        constant 0 until a real clock is bound.
    sink:
        Destination for serialized events.
    metrics:
        Registry whose ``span.<name>`` streaming histograms the span
        durations feed, so quantiles are available live, without
        replaying events; the null registry by default.
    """

    enabled = True

    def __init__(
        self,
        sink: EventSink,
        clock: Optional[Callable[[], float]] = None,
        metrics: MetricsRegistry = NULL_METRICS,
    ) -> None:
        self.clock = clock if clock is not None else (lambda: 0.0)
        self.sink = sink
        self.metrics = metrics
        self._seq = 0
        #: Names of the currently open spans, outermost first. Spans
        #: are context managers, so entries/exits pair LIFO and the
        #: stack mirrors the live nesting; each finished span records
        #: the ancestors it was opened under, which is what the
        #: cost-attribution profiler folds into a tree.
        self._stack: list = []

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Point the tracer at a run's virtual clock."""
        self.clock = clock

    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: object) -> Span:
        """Open a span; use as a context manager."""
        return Span(self, name, attrs)

    def enter_span(self, name: str) -> tuple:
        """Push ``name`` onto the live stack; returns its ancestors."""
        ancestors = tuple(self._stack)
        self._stack.append(name)
        return ancestors

    def exit_span(self) -> None:
        """Pop the innermost open span (called by :class:`Span`)."""
        if self._stack:
            self._stack.pop()

    def point(self, name: str, **attrs: object) -> None:
        """Emit an instantaneous event."""
        self._emit("point", name, self.clock(), attrs, stack=self._stack)

    def finish_span(
        self,
        name: str,
        attrs: Dict,
        started_at: float,
        dur: float,
        wall_s: float,
        stack: tuple = (),
    ) -> None:
        """Record a completed span (called by :class:`Span`)."""
        self._emit("span", name, started_at, attrs, dur, wall_s, stack)
        self.metrics.histogram(names.SPAN_PREFIX + name).add(dur)

    def emit_metrics(self, snapshot: Dict[str, object]) -> None:
        """Emit a ``metrics`` event carrying a registry snapshot."""
        self._emit("metrics", "metrics.snapshot", self.clock(), snapshot)

    # ------------------------------------------------------------------
    def _emit(
        self, kind, name, t, attrs, dur=0.0, wall_s=0.0, stack=()
    ) -> None:
        """Number one event and hand it to the sink chain (the sink
        is looked up per event: owners may swap or shadow it)."""
        self._seq += 1
        self.sink.emit(
            {
                "seq": self._seq,
                "kind": kind,
                "name": name,
                "t": t,
                "dur": dur,
                "wall_s": wall_s,
                "stack": list(stack),
                "attrs": attrs,
            }
        )

    def __repr__(self) -> str:
        return f"Tracer(events={self._seq}, sink={self.sink!r})"


class NullTracer:
    """Disabled tracer: every operation is a no-op.

    ``span`` returns a single shared no-op context manager, so a
    disabled span site costs one method call and the ``with`` protocol
    — no allocation, no clock reads.
    """

    enabled = False

    def clock(self) -> float:
        return 0.0

    def bind_clock(self, clock: Callable[[], float]) -> None:
        pass

    def enter_span(self, name: str) -> tuple:
        return ()

    def exit_span(self) -> None:
        pass

    def span(self, name: str, **attrs: object) -> _NullSpan:
        return NULL_SPAN

    def point(self, name: str, **attrs: object) -> None:
        pass

    def emit_metrics(self, snapshot: Dict[str, object]) -> None:
        pass

    def __repr__(self) -> str:
        return "NullTracer()"


NULL_TRACER = NullTracer()

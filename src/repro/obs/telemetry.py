"""The telemetry bundle a deployment run carries.

:class:`Telemetry` wires the three observability primitives together —
a :class:`~repro.obs.metrics.MetricsRegistry`, a
:class:`~repro.obs.trace.Tracer`, and an event sink chain (an
in-memory ring buffer, plus an optional user sink such as a
:class:`~repro.obs.sink.JsonlSink`). One bundle instruments one run:
the execution engine binds its virtual clock at construction, and
every component reads instruments out of the shared registry.

The disabled singleton :data:`NULL_TELEMETRY` is what every component
holds by default. It is a null object all the way down — its tracer
is :data:`~repro.obs.trace.NULL_TRACER` and its registry is
:data:`~repro.obs.metrics.NULL_METRICS` — so an instrumentation site
just emits: ``telemetry.tracer.point(...)``,
``telemetry.metrics.counter(...).inc()``. Nothing is recorded, the run
stays byte-identical to an un-instrumented build, and the cost is one
no-op call per site (``url_continuous`` of ``benchmarks/e2e`` runs
that way; ``url_stack`` is the same run with everything attached).

``enabled`` is still read, but only where the answer changes what a
caller gets back rather than whether an event is emitted:
:meth:`Telemetry.attach_monitor`/:meth:`~Telemetry.attach_ledger`
refuse a disabled bundle, :meth:`~Telemetry.state_dict` saves nothing
for one (so a checkpoint of an un-instrumented run has no telemetry
keys), and a run's result reports ``telemetry=None`` instead of the
shared null bundle (``DeploymentResult.telemetry``,
``FleetOrchestrator.telemetry_digest``). Attachments that may be
absent (``ledger``, ``monitor``) keep their ``is not None`` checks:
absent is a different behaviour, not a disabled one.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.sink import EventSink, MultiSink, RingBufferSink
from repro.obs.trace import NULL_TRACER, Tracer


class Telemetry:
    """Metrics + tracer + sinks for one deployment run.

    Parameters
    ----------
    sink:
        Optional extra sink (e.g. a JSONL file); events always also
        land in the internal ring buffer.
    ring_capacity:
        Bound on the in-memory event buffer.
    enabled:
        ``False`` builds a disabled bundle (used for the shared
        :data:`NULL_TELEMETRY` singleton).
    """

    def __init__(
        self,
        sink: Optional[EventSink] = None,
        ring_capacity: int = 65536,
        enabled: bool = True,
    ) -> None:
        self.enabled = enabled
        self.metrics = MetricsRegistry() if enabled else NULL_METRICS
        self.ring = RingBufferSink(ring_capacity)
        #: The one flat chain: ring, the user sink, then the monitor.
        self.sink = MultiSink(
            [self.ring] if sink is None else [self.ring, sink]
        )
        self.tracer = (
            Tracer(self.sink, metrics=self.metrics)
            if enabled
            else NULL_TRACER
        )
        #: Attached :class:`~repro.obs.monitor.HealthMonitor`, if any.
        self.monitor = None
        #: Attached :class:`~repro.obs.lineage.LineageLedger`, if any.
        self.ledger = None

    # ------------------------------------------------------------------
    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Bind the run's virtual clock (the engine's ``total_cost``)."""
        self.tracer.bind_clock(clock)

    def attach_monitor(self, monitor=None, *, rules=None, config=None):
        """Splice a :class:`~repro.obs.monitor.HealthMonitor` into the
        sink chain so it sees every event live.

        Pass a prebuilt ``monitor`` or let one be constructed from
        ``rules``/``config``. The monitor gets this bundle's tracer
        and metrics bound, so alert transitions show up in the event
        stream (``alert.firing`` points, ``alert.fired`` counters)
        next to the signals that caused them. Returns the monitor.
        """
        from repro.exceptions import ValidationError
        from repro.obs.monitor import HealthMonitor

        if not self.enabled:
            raise ValidationError(
                "cannot attach a monitor to disabled telemetry"
            )
        if self.monitor is not None:
            raise ValidationError(
                "this telemetry bundle already has a monitor attached"
            )
        if monitor is None:
            monitor = HealthMonitor(rules=rules, config=config)
        monitor.bind(tracer=self.tracer, metrics=self.metrics)
        if self.ledger is not None:
            monitor.bind(ledger=self.ledger)
        self.sink.sinks.append(monitor)
        self.monitor = monitor
        return monitor

    def attach_ledger(self, ledger=None):
        """Attach a :class:`~repro.obs.lineage.LineageLedger`.

        The ledger is not a sink — platform components record into it
        directly — but it binds this bundle's tracer (for the virtual
        clock and ``lineage.node`` points) and metrics. Returns the
        ledger.
        """
        from repro.exceptions import ValidationError
        from repro.obs.lineage import LineageLedger

        if not self.enabled:
            raise ValidationError(
                "cannot attach a ledger to disabled telemetry"
            )
        if self.ledger is not None:
            raise ValidationError(
                "this telemetry bundle already has a ledger attached"
            )
        if ledger is None:
            ledger = LineageLedger()
        ledger.bind(tracer=self.tracer, metrics=self.metrics)
        if self.monitor is not None:
            self.monitor.bind(ledger=ledger)
        self.ledger = ledger
        return ledger

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def _checkpointed(self) -> List[Tuple[str, Any, Dict[str, str]]]:
        """``(checkpoint key, component, its logs)`` for what is
        attached now.

        The one table :meth:`state_dict`, :meth:`logs` and
        :meth:`load_state_dict` walk: a new checkpointed attachment is
        one entry here. ``its logs`` maps each list the component only
        ever appends to from its checkpoint log key to its name — both
        the attribute holding it and its key in the component's
        ``state_dict``.
        """
        if not self.enabled:
            return []
        parts = (
            ("metrics", self.metrics, {}),
            (
                "monitor",
                self.monitor,
                {"monitor": "snapshots", "incidents": "resolved_incidents"},
            ),
            ("lineage", self.ledger, {"lineage": "entries"}),
        )
        return [row for row in parts if row[1] is not None]

    def state_dict(self) -> Dict[str, Any]:
        """What a checkpoint saves of this bundle, logs aside.

        The metrics registry plus whichever of monitor and ledger are
        attached, keyed as they sit at the top level of a checkpoint's
        state; ``{}`` when disabled. Events already emitted are not
        state — they went to the sinks. A component that keeps logs
        gives its ``head_state()``; the logs themselves go through
        :meth:`logs`.
        """
        return {
            key: part.head_state() if logs else part.state_dict()
            for key, part, logs in self._checkpointed()
        }

    def logs(self) -> Dict[str, List[Any]]:
        """The *live* append-only lists, by checkpoint log key.

        Not copies: the checkpoint store remembers how much of each
        it has written and writes the rest, so the cost of a
        checkpoint does not grow with the run's history.
        """
        return {
            key: getattr(part, name)
            for __, part, logs in self._checkpointed()
            for key, name in logs.items()
        }

    def load_state_dict(
        self, state: Dict[str, Any], logs: Dict[str, List[Any]]
    ) -> None:
        """Restore what :meth:`state_dict` and :meth:`logs` saved.

        Takes the whole checkpoint state and reads only its own keys.
        An entry with no matching attachment here (or an attachment
        the crashed run did not have) is skipped: the recovering run
        decides what is attached, the checkpoint only fills it in.
        """
        for key, part, part_logs in self._checkpointed():
            saved = state.get(key)
            if saved is None:
                continue
            saved = {
                **saved,
                **{name: logs[log] for log, name in part_logs.items()},
            }
            part.load_state_dict(saved)

    @property
    def events(self) -> List[Dict[str, object]]:
        """Buffered events, oldest first."""
        return self.ring.events

    def flush_metrics(self) -> None:
        """Emit the current metrics snapshot as a ``metrics`` event.

        Called at the end of a run so JSONL traces are self-contained:
        offline consumers get final counter/gauge/histogram state
        without access to the in-process registry.
        """
        self.tracer.emit_metrics(self.metrics.snapshot())

    def close(self) -> None:
        """Close the sink chain (flushes JSONL files).

        An attached monitor is flushed *first*, while the chain is
        still open — its final-window alert points must reach the
        other sinks before files close.
        """
        if self.monitor is not None:
            self.monitor.flush()
        self.sink.close()

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"Telemetry({state}, buffered={len(self.ring)})"


#: Shared disabled bundle; what components hold when no telemetry was
#: requested. Writers do not check ``enabled``: its tracer and registry
#: discard what they are given, so it stays empty however it is used.
NULL_TELEMETRY = Telemetry(enabled=False)

"""Discrete-event simulation of micro-batched serving under load.

The simulator wires the open-loop arrival stream, the bounded
admission queue, the micro-batcher, and a
:class:`~repro.serving.endpoint.ServingEndpoint` into one event loop
on the virtual clock. Time is cost units: a batch's service time is
exactly the engine cost its transforms and predictions charge, so
latency percentiles and alert timelines are byte-reproducible.

Three event kinds drive the loop, with a fixed tie order at equal
timestamps (completion < arrival < deadline, then insertion order):

* **arrival** — offer the request to the admission queue; shed it if
  the queue is full, else schedule its max-wait deadline;
* **deadline** — the oldest queued request's wait budget expired;
  flush a partial batch if a server is free;
* **completion** — a batch finished; free its server, record
  per-request latency, dispatch the next batch if one is ready.

Telemetry: the simulator binds the shared virtual clock to the
telemetry bundle (displacing the engine's own cost clock, which the
simulation clock is a superset of) and emits ``traffic.*`` /
``batch.*`` / ``slo.*`` counters, histograms, and points — the
surface :func:`repro.traffic.slo.traffic_rules` watches.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.data.table import Table
from repro.exceptions import ValidationError
from repro.obs import names
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.serving.endpoint import ServingEndpoint
from repro.traffic.admission import AdmissionQueue, Request
from repro.traffic.batcher import MicroBatcher
from repro.traffic.generator import Arrivals
from repro.traffic.slo import SloTracker, TrafficReport

#: Event-kind priorities at equal timestamps.
_COMPLETION, _ARRIVAL, _DEADLINE = 0, 1, 2


class VirtualClock:
    """A monotone simulation clock, callable for telemetry binding."""

    __slots__ = ("now",)

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, t: float) -> None:
        if t > self.now:
            self.now = t


@dataclass(frozen=True)
class SimulationConfig:
    """Front-end knobs (all times/budgets in virtual cost units)."""

    max_batch_size: int = 8
    max_wait: float = 0.05
    queue_capacity: int = 32
    concurrency: int = 1

    def __post_init__(self) -> None:
        if self.concurrency < 1:
            raise ValidationError(
                f"concurrency must be >= 1, got {self.concurrency}"
            )


@dataclass(frozen=True)
class SimulationResult:
    """One simulated run: SLO report plus bit-identity witnesses."""

    report: TrafficReport
    #: Flattened primary-side predictions in dispatch order.
    primary_stream: np.ndarray
    #: Flattened candidate-side predictions in dispatch order.
    candidate_stream: np.ndarray
    #: Request ids in dispatch order (one entry per request).
    dispatch_order: Tuple[int, ...]
    #: Request ids shed at admission, in shed order.
    shed_ids: Tuple[int, ...]

    def digest(self) -> str:
        """SHA-256 over streams and orderings — the replay witness."""
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.primary_stream).tobytes())
        h.update(np.ascontiguousarray(self.candidate_stream).tobytes())
        h.update(np.asarray(self.dispatch_order, dtype=np.int64).tobytes())
        h.update(np.asarray(self.shed_ids, dtype=np.int64).tobytes())
        return h.hexdigest()


@dataclass
class _InFlight:
    requests: Tuple[Request, ...]
    dispatch_time: float


class TrafficSimulator:
    """Runs one arrival stream against a serving endpoint.

    Parameters
    ----------
    endpoint:
        The (possibly canary/shadow staged) endpoint to drive.
    pool:
        Replay pool; requests sample its rows by index.
    config:
        Front-end knobs.
    telemetry:
        Optional observability bundle. When enabled, the simulator
        rebinds its clock so every span, point, and monitor window
        closes on simulated time, not raw engine cost.
    clock:
        Optional shared clock, letting several simulation phases (and
        interleaved training) advance one monotone timeline.
    """

    def __init__(
        self,
        endpoint: ServingEndpoint,
        pool: Table,
        config: Optional[SimulationConfig] = None,
        telemetry: Optional[Telemetry] = None,
        clock: Optional[VirtualClock] = None,
    ) -> None:
        self.endpoint = endpoint
        self.pool = pool
        self.config = config if config is not None else SimulationConfig()
        self.telemetry = (
            telemetry if telemetry is not None else NULL_TELEMETRY
        )
        self.clock = clock if clock is not None else VirtualClock()
        #: The most recent run's tracker (fresh per :meth:`run`).
        self.slo = SloTracker()
        self._seen_users: set = set()
        self.telemetry.bind_clock(self.clock)

    # ------------------------------------------------------------------
    def run(self, arrivals: Arrivals) -> SimulationResult:
        """Simulate the whole arrival stream to completion."""
        # Rebind: constructing an endpoint binds its engine's cost
        # clock; simulation owns the timeline while it runs.
        self.telemetry.bind_clock(self.clock)
        metrics = self.telemetry.metrics
        queue = AdmissionQueue(self.config.queue_capacity)
        batcher = MicroBatcher(
            queue, self.config.max_batch_size, self.config.max_wait
        )
        # Fresh accounting per run: a simulator reused across phases
        # reports each phase's SLO surface, not a running total.
        self.slo = SloTracker()
        start = self.clock.now
        busy = 0
        seq = 0
        heap: List[tuple] = []
        for i in range(arrivals.num_requests):
            heapq.heappush(
                heap,
                (start + float(arrivals.times[i]), _ARRIVAL, seq, i),
            )
            seq += 1
        primary_parts: List[np.ndarray] = []
        candidate_parts: List[np.ndarray] = []
        dispatch_order: List[int] = []
        shed_ids: List[int] = []

        def emit_queue_depth() -> None:
            metrics.gauge(names.TRAFFIC_QUEUE_DEPTH).set(len(queue))

        def dispatch(now: float) -> None:
            nonlocal busy, seq
            while busy < self.config.concurrency:
                flush = batcher.poll(now)
                if flush is None:
                    break
                tables = [
                    self.pool.take(req.rows) for req in flush.requests
                ]
                keys = [req.request_id for req in flush.requests]
                cost_before = self.endpoint.engine.total_cost()
                served = self.endpoint.predict_requests(
                    tables, keys=keys
                )
                service = (
                    self.endpoint.engine.total_cost() - cost_before
                )
                primary_parts.append(served.primary_predictions)
                candidate_parts.append(served.candidate_predictions)
                dispatch_order.extend(keys)
                oldest = min(
                    req.arrival_time for req in flush.requests
                )
                self.slo.on_batch(
                    flush.size, flush.num_rows, flush.reason, service
                )
                for req in flush.requests:
                    self.slo.queue_delay.add(now - req.arrival_time)
                metrics.counter(names.BATCH_DISPATCHED).inc()
                metrics.counter(names.BATCH_ROWS).inc(flush.num_rows)
                metrics.observe(names.BATCH_SIZE, flush.size)
                metrics.observe(names.BATCH_WAIT, now - oldest)
                if flush.reason == "full":
                    metrics.counter(names.BATCH_FLUSH_FULL).inc()
                elif flush.reason == "wait":
                    metrics.counter(names.BATCH_FLUSH_WAIT).inc()
                self.telemetry.tracer.point(
                    names.BATCH_DISPATCHED,
                    size=flush.size,
                    rows=flush.num_rows,
                    reason=flush.reason,
                    wait=now - oldest,
                    service=service,
                )
                for req in flush.requests:
                    metrics.observe(
                        names.SLO_QUEUE_DELAY, now - req.arrival_time
                    )
                metrics.observe(names.SLO_SERVICE_TIME, service)
                busy += 1
                record = _InFlight(
                    requests=flush.requests, dispatch_time=now
                )
                heapq.heappush(
                    heap, (now + service, _COMPLETION, seq, record)
                )
                seq += 1
                emit_queue_depth()

        while heap:
            t, kind, _, payload = heapq.heappop(heap)
            self.clock.advance(t)
            now = self.clock.now
            if kind == _ARRIVAL:
                i = payload
                request = Request(
                    request_id=int(i),
                    arrival_time=now,
                    user=int(arrivals.users[i]),
                    rows=arrivals.request_rows(i),
                )
                self.slo.on_arrival()
                metrics.counter(names.TRAFFIC_ARRIVALS).inc()
                metrics.counter(names.TRAFFIC_ROWS).inc(request.num_rows)
                if request.user not in self._seen_users:
                    self._seen_users.add(request.user)
                    metrics.counter(names.TRAFFIC_USERS).inc()
                shed = queue.offer(request)
                if shed is not None:
                    self.slo.on_shed()
                    shed_ids.append(shed.request_id)
                    metrics.counter(names.TRAFFIC_SHED).inc()
                    self.telemetry.tracer.point(
                        names.TRAFFIC_SHED,
                        request=shed.request_id,
                        user=shed.user,
                        queue=len(queue),
                    )
                if shed is not request:
                    self.slo.on_admit()
                    metrics.counter(names.TRAFFIC_ADMITTED).inc()
                    heapq.heappush(
                        heap,
                        (
                            now + batcher.max_wait,
                            _DEADLINE,
                            seq,
                            request.request_id,
                        ),
                    )
                    seq += 1
                emit_queue_depth()
                dispatch(now)
            elif kind == _COMPLETION:
                busy -= 1
                record = payload
                for req in record.requests:
                    latency = now - req.arrival_time
                    self.slo.on_completion(
                        latency, record.dispatch_time - req.arrival_time
                    )
                    metrics.observe(names.SLO_LATENCY, latency)
                    self.telemetry.tracer.point(
                        names.SLO_LATENCY,
                        cost=latency,
                        request=req.request_id,
                    )
                metrics.counter(names.TRAFFIC_COMPLETED).inc(
                    len(record.requests)
                )
                dispatch(now)
            else:  # _DEADLINE
                dispatch(now)

        # Deadline events guarantee every admitted request eventually
        # flushes, so the queue is empty here; drain defensively in
        # case a custom config ever breaks that invariant.
        while len(queue):
            flush = batcher.poll(self.clock.now, drain=True)
            if flush is None:
                break
            queue_requests = flush.requests
            tables = [self.pool.take(r.rows) for r in queue_requests]
            served = self.endpoint.predict_requests(
                tables, keys=[r.request_id for r in queue_requests]
            )
            primary_parts.append(served.primary_predictions)
            candidate_parts.append(served.candidate_predictions)
            dispatch_order.extend(r.request_id for r in queue_requests)
            self.slo.on_batch(
                flush.size, flush.num_rows, flush.reason, 0.0
            )

        duration = self.clock.now - start
        report = self.slo.report(duration)
        metrics.gauge(names.SLO_THROUGHPUT).set(report.throughput)
        metrics.gauge(names.SLO_SHED_RATE).set(report.shed_rate)
        empty = np.empty(0, dtype=np.float64)
        return SimulationResult(
            report=report,
            primary_stream=(
                np.concatenate(primary_parts) if primary_parts else empty
            ),
            candidate_stream=(
                np.concatenate(candidate_parts)
                if candidate_parts
                else empty
            ),
            dispatch_order=tuple(dispatch_order),
            shed_ids=tuple(shed_ids),
        )

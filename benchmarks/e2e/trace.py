"""Span recording from outside the program, for the traced repeat.

Nothing under ``src/`` knows about this module. :func:`instrument`
replaces public methods on the *instances* one deployment built with
closures that note a name, a start and an end; no class and no module
attribute is touched, so a deployment built afterwards is untraced.
The wrapper does the least it can per call (two clock reads and
three appends) because the dense workload spends ~45 us per trained
row under four spans. Parent links, chunk indices and self times are
worked out after the run from the recorded intervals: the program is
single-threaded, so intervals nest properly and a span's children are
exactly the spans that started after it and completed before it.
"""

from __future__ import annotations

import json
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
)

from repro.obs.monitor import HealthMonitor
from repro.obs.sink import JsonlSink, MultiSink

#: The roots that delimit one chunk of the closed loop.
PREDICT = "core.predict"
OBSERVE = "core.observe"


class Span(NamedTuple):
    """One resolved span; ``parent`` indexes the resolved list (-1: root).

    ``start`` and ``end`` are clock readings; ``seconds`` and
    ``self_seconds`` are at reference speed when factors were given.
    """

    name: str
    start: float
    end: float
    parent: int
    chunk: int
    seconds: float
    self_seconds: float


class SpanRecorder:
    """Holds the spans of one traced repeat in memory."""

    def __init__(self) -> None:
        # Parallel flat stores: a tuple per span would be one more
        # tracked allocation per call for the garbage collector.
        self._names: List[str] = []
        self._times = array("d")
        #: Work counted at a boundary (rows handed to the trainer).
        self.counts: Dict[str, int] = {}
        self._installed: List[tuple] = []

    @property
    def spans(self) -> List[tuple]:
        """``(name, start, end)`` in completion order."""
        return list(zip(self._names, self._times[::2], self._times[1::2]))

    def __len__(self) -> int:
        return len(self._names)

    def wrap(
        self,
        owner: object,
        attribute: str,
        name: str,
        count: Optional[Callable[..., int]] = None,
    ) -> None:
        """Shadow ``owner.attribute`` with a span-recording closure.

        ``count`` receives the call's arguments and returns the amount
        of work to add to ``counts[name]``.
        """
        original = getattr(owner, attribute)
        record_name = self._names.append
        record_time = self._times.append
        counts = self.counts

        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = perf_counter()
                record_name(name)
                record_time(start)
                record_time(end)

        if count is not None:
            counts.setdefault(name, 0)
            timed = traced

            def traced(*args, **kwargs):
                counts[name] += count(*args, **kwargs)
                return timed(*args, **kwargs)

        setattr(owner, attribute, traced)
        self._installed.append((owner, attribute, traced))

    @contextmanager
    def suspended(self, owners: Iterable[object]):
        """Take the wrappers off ``owners`` for the length of the block.

        A checkpoint pickles the pipeline, model and optimizer; a
        closure in their ``__dict__`` would fail to pickle.
        """
        ids = {id(owner) for owner in owners}
        hidden = [e for e in self._installed if id(e[0]) in ids]
        for owner, attribute, _ in hidden:
            delattr(owner, attribute)
        try:
            yield
        finally:
            for owner, attribute, traced in hidden:
                setattr(owner, attribute, traced)


def resolve(
    spans: List[tuple], factors: Optional[Sequence[float]] = None
) -> List[Span]:
    """Parent, chunk index and self time of spans in completion order.

    Self time is the span's duration minus the part its children
    cover. The chunk index counts the ``core.predict`` roots seen so
    far; spans before the first one (the initial fit) get -1.
    ``factors[chunk]`` scales a span's durations to reference speed
    (see ``speed.py``); the initial fit uses the first factor.
    """
    count = len(spans)
    parents = [-1] * count
    covered = [0.0] * count
    open_children: List[int] = []
    for index, (_, start, _) in enumerate(spans):
        while open_children and spans[open_children[-1]][1] >= start:
            child = open_children.pop()
            parents[child] = index
            covered[index] += spans[child][2] - spans[child][1]
        open_children.append(index)
    chunks = [-1] * count
    chunk = -1
    for index in open_children:  # the roots, in time order
        if spans[index][0] == PREDICT:
            chunk += 1
        chunks[index] = chunk
    for index in range(count - 1, -1, -1):
        if parents[index] >= 0:
            chunks[index] = chunks[parents[index]]
    scales = [
        1.0 if factors is None else factors[max(chunk, 0)] for chunk in chunks
    ]
    return [
        Span(
            name,
            start,
            end,
            parents[index],
            chunks[index],
            (end - start) * scales[index],
            ((end - start) - covered[index]) * scales[index],
        )
        for index, (name, start, end) in enumerate(spans)
    ]


class LayerTime(NamedTuple):
    calls: int
    seconds: float
    self_seconds: float


def by_name(spans: Iterable[Span]) -> Dict[str, LayerTime]:
    """Calls, total seconds and self seconds per span name."""
    totals: Dict[str, List[float]] = {}
    for span in spans:
        entry = totals.setdefault(span.name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += span.seconds
        entry[2] += span.self_seconds
    return {
        name: LayerTime(int(calls), seconds, self_seconds)
        for name, (calls, seconds, self_seconds) in totals.items()
    }


def write_jsonl(spans: List[Span], path) -> None:
    """One span per line: id, name, start, end, parent id, chunk."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(
            f'{{"id":{index},"name":{json.dumps(span.name)},'
            f'"start":{span.start!r},"end":{span.end!r},'
            f'"parent":{span.parent},"chunk":{span.chunk}}}\n'
            for index, span in enumerate(spans)
        )


def _rows(features, batch_rows=None) -> int:
    return features.num_rows


def _wrap_sinks(recorder: SpanRecorder, sink) -> None:
    if isinstance(sink, MultiSink):
        recorder.wrap(sink, "emit", "obs.sink_emit")
        for child in sink.sinks:
            _wrap_sinks(recorder, child)
    elif isinstance(sink, JsonlSink):
        recorder.wrap(sink, "emit", "obs.jsonl_emit")
    elif isinstance(sink, HealthMonitor):
        recorder.wrap(sink, "emit", "obs.monitor_emit")
    else:
        recorder.wrap(sink, "emit", "obs.sink_emit")


def instrument(deployment, recorder: SpanRecorder) -> None:
    """Put a span around every layer boundary of one continuous
    deployment. Span names are ``<repro module>.<operation>``."""
    wrap = recorder.wrap
    platform = deployment.platform
    manager = platform.manager
    engine = platform.engine
    data_manager = platform.data_manager
    storage = data_manager.storage

    wrap(platform, "initial_fit", "core.initial_fit")
    wrap(platform, "predict", PREDICT)
    wrap(platform, "observe", OBSERVE)
    wrap(manager, "online_step", "core.online_step", count=_rows)
    wrap(manager, "sample_for_training", "core.sample_for_training")
    wrap(platform.proactive, "run", "core.proactive_run")

    for operation in (
        "online_pass",
        "transform_only",
        "train_step",
        "train_full",
        "predict",
    ):
        wrap(engine, operation, f"execution.{operation}")

    for component in manager.pipeline:
        # The pipeline never calls update on a stateless component.
        if component.is_stateful:
            wrap(component, "update", f"pipeline.{component.name}.update")
        wrap(component, "transform", f"pipeline.{component.name}.transform")

    wrap(manager.trainer, "step", "ml.trainer_step")
    wrap(manager.model, "gradient", "ml.gradient")
    wrap(manager.model, "predict", "ml.predict")
    wrap(manager.optimizer, "step", "ml.optimizer_step")

    wrap(data_manager, "ingest", "data.ingest")
    wrap(data_manager, "store_features", "data.store_features")
    wrap(data_manager, "sample", "data.sample")
    wrap(data_manager.sampler, "sample", "data.sampler")
    for operation in (
        "put_raw",
        "put_features",
        "get_raw",
        "get_features",
        "evict",
    ):
        wrap(storage, operation, f"data.storage_{operation}")

    telemetry = deployment.telemetry
    if telemetry.enabled:
        _wrap_sinks(recorder, telemetry.sink)
        if telemetry.ledger is not None:
            for attribute in dir(telemetry.ledger):
                if attribute.startswith("record_"):
                    wrap(telemetry.ledger, attribute, "obs.ledger_record")

    store = deployment.reliability.store
    if store is not None:
        wrap(store, "write", "reliability.checkpoint_write")
        write = store.write
        artifacts = [
            *manager.pipeline,
            manager.model,
            manager.optimizer,
        ]

        def write_unwrapped_artifacts(*args, **kwargs):
            with recorder.suspended(artifacts):
                return write(*args, **kwargs)

        store.write = write_unwrapped_artifacts

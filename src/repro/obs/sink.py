"""Event sinks: where structured telemetry events go.

Every event is a flat dict (see :data:`repro.obs.trace.EVENT_FIELDS`
for the schema). Two concrete sinks cover the common cases:

* :class:`RingBufferSink` — bounded in-memory buffer, always attached
  so a finished run can be summarized without any file I/O;
* :class:`JsonlSink` — one JSON object per line, the interchange
  format the ``repro obs`` CLI consumes. A line is encoded once, by
  the C encoder, and written in one call.

:class:`MultiSink` fans one event out to several sinks; a telemetry
bundle's chain is one flat ``MultiSink`` (ring, user sink, monitor).
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Union

from repro.exceptions import ValidationError

PathLike = Union[str, Path]
EventDict = Dict[str, object]

#: ``json.dump(obj, fp)`` is the slow path: writing to a file always
#: goes through the pure-Python ``iterencode`` (about forty generator
#: steps and as many ``fp.write`` calls per event). ``encode`` is the
#: stdlib's one-shot C encoder and yields the same characters.
_encode_event = json.JSONEncoder(separators=(",", ":")).encode


class EventSink:
    """Receives serialized telemetry events."""

    def emit(self, event: EventDict) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release resources (idempotent)."""


class RingBufferSink(EventSink):
    """Keep the most recent ``capacity`` events in memory."""

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValidationError(
                f"ring capacity must be >= 1, got {capacity}"
            )
        self.capacity = capacity
        self._events: deque = deque(maxlen=capacity)
        #: Total events ever emitted (may exceed ``len(events)``).
        self.emitted = 0

    def emit(self, event: EventDict) -> None:
        self._events.append(event)
        self.emitted += 1

    @property
    def events(self) -> List[EventDict]:
        return list(self._events)

    @property
    def dropped(self) -> int:
        """Events that fell off the ring."""
        return self.emitted - len(self._events)

    def clear(self) -> None:
        self._events.clear()
        self.emitted = 0

    def __len__(self) -> int:
        return len(self._events)

    def __repr__(self) -> str:
        return (
            f"RingBufferSink(capacity={self.capacity}, "
            f"buffered={len(self._events)}, emitted={self.emitted})"
        )


class JsonlSink(EventSink):
    """Append events to a JSONL file, one JSON object per line.

    The file is opened lazily on the first event so constructing a
    telemetry pipeline never touches the filesystem by itself.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        self._handle = None
        self.written = 0

    def emit(self, event: EventDict) -> None:
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "w", encoding="utf-8")
        self._handle.write(_encode_event(event) + "\n")
        self.written += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __repr__(self) -> str:
        return f"JsonlSink({str(self.path)!r}, written={self.written})"


class MultiSink(EventSink):
    """Fan events out to several sinks."""

    def __init__(self, sinks: Sequence[EventSink]) -> None:
        if not sinks:
            raise ValidationError("MultiSink needs at least one sink")
        self.sinks = list(sinks)

    def emit(self, event: EventDict) -> None:
        for sink in self.sinks:
            sink.emit(event)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()

    def __repr__(self) -> str:
        return f"MultiSink({self.sinks!r})"


def iter_jsonl(path: PathLike) -> Iterator[EventDict]:
    """Stream events back from a JSONL trace file."""
    trace = Path(path)
    if not trace.exists():
        raise ValidationError(f"trace file {str(trace)!r} does not exist")
    with open(trace, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError as error:
                raise ValidationError(
                    f"{trace}:{line_number}: invalid JSON event: {error}"
                ) from None


def load_jsonl(
    path: PathLike, limit: Optional[int] = None
) -> List[EventDict]:
    """Read a JSONL trace into memory (optionally only the last ``limit``)."""
    events = list(iter_jsonl(path))
    if limit is not None and limit >= 0:
        return events[len(events) - limit:] if limit else []
    return events

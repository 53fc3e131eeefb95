"""Trace summarization and rendering.

Consumes the JSONL event schema (:data:`repro.obs.trace.EVENT_FIELDS`)
— live from a :class:`~repro.obs.telemetry.Telemetry` ring buffer or
offline from a trace file — and produces the per-run summary the
``repro obs summary`` CLI prints: per-span-name counts and exact
p50/p95/p99 durations on the virtual clock, point-event counts, and
the final counter/gauge state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from repro.obs.sink import EventDict, load_jsonl
from repro.utils.text import _align


@dataclass(frozen=True)
class SpanSummary:
    """Aggregate statistics for one span name."""

    name: str
    count: int
    total_dur: float
    p50: float
    p95: float
    p99: float
    max_dur: float
    total_wall_s: float


@dataclass
class TraceSummary:
    """Everything ``repro obs summary`` reports for one trace."""

    spans: List[SpanSummary] = field(default_factory=list)
    points: Dict[str, int] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    #: name -> {count, mean, min, max, p50, p95, p99} from the
    #: streaming histograms in the run's final metrics snapshot.
    histograms: Dict[str, Dict[str, float]] = field(default_factory=dict)
    events: int = 0

    @property
    def total_span_dur(self) -> float:
        return sum(span.total_dur for span in self.spans)


def summarize_events(
    events: Iterable[EventDict],
    metrics_snapshot: Optional[Mapping[str, object]] = None,
) -> TraceSummary:
    """Aggregate a stream of events into a :class:`TraceSummary`.

    Percentiles are exact (computed over all span durations present in
    the stream). Counters and gauges come from ``metrics_snapshot``
    when given, else from the last ``metrics`` event in the stream —
    the snapshot a finished run appends via
    :meth:`~repro.obs.telemetry.Telemetry.flush_metrics`.
    """
    durations: Dict[str, List[float]] = {}
    walls: Dict[str, float] = {}
    points: Dict[str, int] = {}
    snapshot: Optional[Mapping[str, object]] = metrics_snapshot
    count = 0
    for event in events:
        count += 1
        kind = event.get("kind")
        name = str(event.get("name", "?"))
        if kind == "span":
            durations.setdefault(name, []).append(
                float(event.get("dur", 0.0))
            )
            walls[name] = walls.get(name, 0.0) + float(
                event.get("wall_s", 0.0)
            )
        elif kind == "point":
            points[name] = points.get(name, 0) + 1
        elif kind == "metrics" and metrics_snapshot is None:
            snapshot = event.get("attrs", {})  # last one wins
    spans = []
    for name in sorted(durations):
        values = np.asarray(durations[name], dtype=np.float64)
        spans.append(
            SpanSummary(
                name=name,
                count=int(values.size),
                total_dur=float(values.sum()),
                p50=float(np.percentile(values, 50)),
                p95=float(np.percentile(values, 95)),
                p99=float(np.percentile(values, 99)),
                max_dur=float(values.max()),
                total_wall_s=walls[name],
            )
        )
    spans.sort(key=lambda span: span.total_dur, reverse=True)
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    histograms: Dict[str, Dict[str, float]] = {}
    if snapshot:
        counters = dict(snapshot.get("counters", {}))
        gauges = dict(snapshot.get("gauges", {}))
        histograms = {
            name: dict(stats)
            for name, stats in snapshot.get("histograms", {}).items()
        }
    return TraceSummary(
        spans=spans,
        points=dict(sorted(points.items())),
        counters=counters,
        gauges=gauges,
        histograms=histograms,
        events=count,
    )


def summarize_trace(path) -> TraceSummary:
    """Summarize a JSONL trace file."""
    return summarize_events(load_jsonl(path))


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def format_summary(summary: TraceSummary) -> str:
    """Render a :class:`TraceSummary` as the CLI's aligned text report."""
    lines: List[str] = [f"events: {summary.events}"]
    if summary.spans:
        lines.append("")
        lines.append("spans (virtual-clock durations, cost units):")
        rows = [
            (
                "name",
                "count",
                "total",
                "p50",
                "p95",
                "p99",
                "max",
                "wall_s",
            )
        ]
        for span in summary.spans:
            rows.append(
                (
                    span.name,
                    str(span.count),
                    f"{span.total_dur:.4f}",
                    f"{span.p50:.6f}",
                    f"{span.p95:.6f}",
                    f"{span.p99:.6f}",
                    f"{span.max_dur:.6f}",
                    f"{span.total_wall_s:.3f}",
                )
            )
        lines.extend(_align(rows))
    if summary.points:
        lines.append("")
        lines.append("point events:")
        for name, count in summary.points.items():
            lines.append(f"  {name:<28} {count}")
    if summary.counters:
        lines.append("")
        lines.append("counters:")
        for name, value in sorted(summary.counters.items()):
            lines.append(f"  {name:<28} {value:g}")
    if summary.gauges:
        lines.append("")
        lines.append("gauges:")
        for name, value in sorted(summary.gauges.items()):
            lines.append(f"  {name:<28} {value:g}")
    if summary.histograms:
        lines.append("")
        lines.append("histograms (streaming, approximate quantiles):")
        rows = [("name", "count", "mean", "p50", "p95", "p99", "max")]
        for name, stats in sorted(summary.histograms.items()):
            if not stats.get("count"):
                continue
            rows.append(
                (
                    name,
                    f"{stats.get('count', 0):g}",
                    f"{stats.get('mean', 0.0):.4f}",
                    f"{stats.get('p50', 0.0):.4f}",
                    f"{stats.get('p95', 0.0):.4f}",
                    f"{stats.get('p99', 0.0):.4f}",
                    f"{stats.get('max', 0.0):.4f}",
                )
            )
        if len(rows) > 1:
            lines.extend(_align(rows))
    return "\n".join(lines)


def format_tail(events: Sequence[EventDict], limit: int = 20) -> str:
    """Render the last ``limit`` events, one line each."""
    chosen = list(events)[-limit:] if limit else []
    lines = []
    for event in chosen:
        kind = event.get("kind", "?")
        name = event.get("name", "?")
        t = float(event.get("t", 0.0))
        dur = float(event.get("dur", 0.0))
        attrs = event.get("attrs", {})
        rendered_attrs = " ".join(
            f"{key}={value}" for key, value in sorted(attrs.items())
        ) if isinstance(attrs, dict) else str(attrs)
        if kind == "span":
            lines.append(
                f"[{t:12.4f}] span  {name:<28} dur={dur:.6f} "
                f"{rendered_attrs}".rstrip()
            )
        elif kind == "metrics":
            lines.append(f"[{t:12.4f}] metrics snapshot")
        else:
            lines.append(
                f"[{t:12.4f}] point {name:<28} {rendered_attrs}".rstrip()
            )
    return "\n".join(lines)

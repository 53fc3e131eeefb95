"""Unit tests for trace summarization and rendering."""

import pytest

from repro.obs.summary import (
    format_summary,
    format_tail,
    summarize_events,
    summarize_trace,
)
from repro.obs.sink import JsonlSink
from repro.obs.telemetry import Telemetry


def span_event(name, dur, seq=1, t=0.0, wall_s=0.0, **attrs):
    return {
        "seq": seq,
        "kind": "span",
        "name": name,
        "t": t,
        "dur": dur,
        "wall_s": wall_s,
        "attrs": attrs,
    }


def point_event(name, seq=1, t=0.0, **attrs):
    return {
        "seq": seq,
        "kind": "point",
        "name": name,
        "t": t,
        "dur": 0.0,
        "wall_s": 0.0,
        "attrs": attrs,
    }


class TestSummarizeEvents:
    def test_empty(self):
        summary = summarize_events([])
        assert summary.events == 0
        assert summary.spans == []

    def test_span_aggregation_exact_percentiles(self):
        events = [
            span_event("work", float(dur), seq=index)
            for index, dur in enumerate(range(1, 101), start=1)
        ]
        summary = summarize_events(events)
        (span,) = summary.spans
        assert span.count == 100
        assert span.p50 == pytest.approx(50.5)
        assert span.p95 == pytest.approx(95.05)
        assert span.max_dur == 100.0

    def test_spans_sorted_by_total_duration(self):
        events = [
            span_event("small", 1.0, seq=1),
            span_event("big", 10.0, seq=2),
        ]
        summary = summarize_events(events)
        assert [s.name for s in summary.spans] == ["big", "small"]

    def test_points_counted(self):
        events = [point_event("decision", seq=i) for i in range(3)]
        assert summarize_events(events).points == {"decision": 3}

    def test_counters_from_last_metrics_event(self):
        events = [
            {
                "seq": 1,
                "kind": "metrics",
                "name": "metrics.snapshot",
                "t": 0.0,
                "dur": 0.0,
                "wall_s": 0.0,
                "attrs": {"counters": {"c": 1.0}, "gauges": {}},
            },
            {
                "seq": 2,
                "kind": "metrics",
                "name": "metrics.snapshot",
                "t": 1.0,
                "dur": 0.0,
                "wall_s": 0.0,
                "attrs": {
                    "counters": {"c": 5.0},
                    "gauges": {"g": 2.0},
                    "histograms": {
                        "h": {"count": 3, "mean": 1.0, "p50": 1.0,
                              "p95": 1.0, "p99": 1.0, "max": 1.0},
                    },
                },
            },
        ]
        summary = summarize_events(events)
        assert summary.counters == {"c": 5.0}
        assert summary.gauges == {"g": 2.0}
        assert summary.histograms["h"]["count"] == 3

    def test_single_span_percentiles_collapse(self):
        summary = summarize_events([span_event("only", 2.5)])
        (span,) = summary.spans
        assert span.count == 1
        assert span.p50 == span.p95 == span.p99 == 2.5
        assert span.max_dur == 2.5

    def test_zero_cost_spans_summarize_without_division(self):
        # Spans from pure-bookkeeping paths can carry dur == 0; the
        # summary (and its rendering) must cope with an all-zero
        # total rather than dividing by it.
        events = [
            span_event("noop", 0.0, seq=index) for index in (1, 2, 3)
        ]
        summary = summarize_events(events)
        (span,) = summary.spans
        assert span.count == 3
        assert span.total_dur == 0.0
        assert span.p99 == 0.0
        text = format_summary(summary)
        assert "noop" in text
        assert "events: 3" in text

    def test_explicit_snapshot_overrides_events(self):
        events = [
            {
                "seq": 1,
                "kind": "metrics",
                "name": "metrics.snapshot",
                "t": 0.0,
                "dur": 0.0,
                "wall_s": 0.0,
                "attrs": {"counters": {"c": 1.0}},
            }
        ]
        summary = summarize_events(
            events, metrics_snapshot={"counters": {"c": 9.0}, "gauges": {}}
        )
        assert summary.counters == {"c": 9.0}


class TestSummarizeTrace:
    def test_from_jsonl_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        telemetry = Telemetry(sink=JsonlSink(path))
        with telemetry.tracer.span("work"):
            pass
        telemetry.metrics.counter("hits").inc(2)
        telemetry.flush_metrics()
        telemetry.close()
        summary = summarize_trace(path)
        assert summary.events == 2
        assert summary.spans[0].name == "work"
        assert summary.counters == {"hits": 2.0}


class TestRendering:
    def test_format_summary_sections(self):
        events = [
            span_event("engine.predict", 0.5, seq=1),
            point_event("scheduler.decision", seq=2),
            {
                "seq": 3,
                "kind": "metrics",
                "name": "metrics.snapshot",
                "t": 1.0,
                "dur": 0.0,
                "wall_s": 0.0,
                "attrs": {
                    "counters": {"cache.hits": 4.0},
                    "gauges": {"cache.materialized_chunks": 2.0},
                    "histograms": {
                        "sampler.chunk_age": {
                            "count": 4, "mean": 1.0, "min": 0.0,
                            "max": 2.0, "p50": 1.0, "p95": 2.0,
                            "p99": 2.0,
                        },
                    },
                },
            },
        ]
        text = format_summary(summarize_events(events))
        assert "events: 3" in text
        assert "engine.predict" in text
        assert "p50" in text and "p95" in text
        assert "scheduler.decision" in text
        assert "cache.hits" in text
        assert "cache.materialized_chunks" in text
        assert "sampler.chunk_age" in text

    def test_format_summary_empty_trace(self):
        assert format_summary(summarize_events([])) == "events: 0"

    def test_format_tail_limit_and_shapes(self):
        events = [point_event("tick", seq=i, t=float(i)) for i in range(30)]
        events.append(span_event("work", 1.0, seq=31, t=30.0, rows=5))
        text = format_tail(events, limit=3)
        lines = text.splitlines()
        assert len(lines) == 3
        assert "span" in lines[-1]
        assert "rows=5" in lines[-1]

    def test_format_tail_zero_limit(self):
        assert format_tail([point_event("tick")], limit=0) == ""

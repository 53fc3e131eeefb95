"""``repro.obs`` — structured telemetry for the deployment platform.

A cross-cutting observability layer with three primitives:

* :class:`MetricsRegistry` — counters, gauges, and streaming
  histograms (p50/p95/p99 without storing samples), cheap enough to
  leave attached to a production run, with a no-op
  :class:`NullMetricsRegistry` behind disabled bundles;
* :class:`Tracer` — span-based event tracing on the platform's two
  clocks (deterministic cost units and wall seconds), with a no-op
  :class:`NullTracer` so disabled tracing costs one no-op call;
* sinks and exporters — an in-memory ring buffer, a JSONL file sink,
  and summary rendering (``repro obs summary`` / ``repro obs tail``);
* the performance observatory — a cost-attribution profiler folding
  span streams into a hierarchical profile tree
  (:func:`build_profile`), persisted benchmark baselines
  (:class:`BaselineStore` / ``BENCH_<name>.json`` trajectories), and
  an exact-match regression gate (:func:`check_record`); ``repro perf
  profile`` renders the tree, and the benchmark suite's
  ``bench_record`` fixture is the one writer and gate of the store;
* the live health monitor — a :class:`HealthMonitor` spliced into the
  sink chain (``telemetry.attach_monitor()``) aggregates the event
  stream into tumbling/sliding virtual-clock windows, evaluates
  declarative :class:`AlertRule` sets, manages the pending → firing →
  resolved incident lifecycle, and exports a deterministic
  ``health.json`` timeline, rendered by ``repro obs health``.

On the CLI, ``--run-dir DIR`` attaches all of it to a run and writes
``DIR/{run.json,trace.jsonl,health.json,lineage.json}``; ``repro
obs`` and ``repro perf profile --trace`` read them back. In code,
enable telemetry on any deployment by passing a bundle::

    from repro.obs import (
        JsonlSink, Telemetry, format_summary, summarize_trace,
    )

    telemetry = Telemetry(sink=JsonlSink("run.jsonl"))
    deployment = ContinuousDeployment(..., telemetry=telemetry)
    result = deployment.run(stream)
    telemetry.flush_metrics()
    telemetry.close()
    print(format_summary(summarize_trace("run.jsonl")))
"""

from repro.obs.baseline import (
    BaselineStore,
    BenchRecord,
    MetricValue,
    current_git_sha,
    environment_fingerprint,
    make_record,
)
from repro.obs.incident import (
    HEALTH_SCHEMA,
    Incident,
    IncidentLog,
    format_alerts,
    format_timeline,
    health_digest,
)
from repro.obs.lineage import (
    LINEAGE_SCHEMA,
    LineageLedger,
    format_blame,
    format_lineage,
    format_trace,
    lineage_digest,
    load_lineage,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    NULL_METRICS,
    NullMetricsRegistry,
    StreamingHistogram,
)
from repro.obs.monitor import (
    HealthMonitor,
    MonitorConfig,
    default_rules,
    replay_trace,
)
from repro.obs.perf import (
    MetricCheck,
    RegressionReport,
    check_record,
    format_report,
)
from repro.obs.profile import (
    ProfileNode,
    build_profile,
    format_profile,
    profile_digest,
    profile_to_dict,
    profile_trace,
    subsystem_totals,
    to_collapsed,
)
from repro.obs.sink import (
    EventSink,
    JsonlSink,
    MultiSink,
    RingBufferSink,
    iter_jsonl,
    load_jsonl,
)
from repro.obs.summary import (
    SpanSummary,
    TraceSummary,
    format_summary,
    format_tail,
    summarize_events,
    summarize_trace,
)
from repro.obs.rules import AlertRule, Evaluation, RuleState
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.obs.trace import (
    EVENT_FIELDS,
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
)
from repro.obs.windows import (
    SeriesWindows,
    SlidingView,
    WindowAggregate,
)

__all__ = [
    # metrics
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "NULL_METRICS",
    "NullMetricsRegistry",
    "StreamingHistogram",
    # tracing
    "EVENT_FIELDS",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    # sinks
    "EventSink",
    "JsonlSink",
    "MultiSink",
    "RingBufferSink",
    "iter_jsonl",
    "load_jsonl",
    # bundle
    "NULL_TELEMETRY",
    "Telemetry",
    # summaries
    "SpanSummary",
    "TraceSummary",
    "format_summary",
    "format_tail",
    "summarize_events",
    "summarize_trace",
    # profiling
    "ProfileNode",
    "build_profile",
    "format_profile",
    "profile_digest",
    "profile_to_dict",
    "profile_trace",
    "subsystem_totals",
    "to_collapsed",
    # baselines
    "BaselineStore",
    "BenchRecord",
    "MetricValue",
    "current_git_sha",
    "environment_fingerprint",
    "make_record",
    # regression gating
    "MetricCheck",
    "RegressionReport",
    "check_record",
    "format_report",
    # health monitor
    "AlertRule",
    "Evaluation",
    "RuleState",
    "HEALTH_SCHEMA",
    "HealthMonitor",
    "Incident",
    "IncidentLog",
    "MonitorConfig",
    "SeriesWindows",
    "SlidingView",
    "WindowAggregate",
    "default_rules",
    "format_alerts",
    "format_timeline",
    "health_digest",
    "replay_trace",
    # provenance ledger
    "LINEAGE_SCHEMA",
    "LineageLedger",
    "format_blame",
    "format_lineage",
    "format_trace",
    "lineage_digest",
    "load_lineage",
]

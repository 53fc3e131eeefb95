"""Unit tests for the tracer, spans, and event sinks."""

import json

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.monitor import HealthMonitor
from repro.obs.rules import AlertRule
from repro.obs.sink import (
    JsonlSink,
    MultiSink,
    RingBufferSink,
    load_jsonl,
)
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.obs.trace import (
    EVENT_FIELDS,
    NULL_SPAN,
    NULL_TRACER,
    NullTracer,
    Tracer,
)


class FakeClock:
    """A settable virtual clock."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def ring():
    return RingBufferSink(capacity=16)


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def tracer(ring, clock):
    return Tracer(ring, clock=clock)


class TestTracer:
    def test_span_measures_virtual_clock(self, tracer, ring, clock):
        with tracer.span("work", chunk=3):
            clock.now = 2.5
        (event,) = ring.events
        assert event["kind"] == "span"
        assert event["name"] == "work"
        assert event["t"] == 0.0
        assert event["dur"] == pytest.approx(2.5)
        assert event["wall_s"] >= 0.0
        assert event["attrs"] == {"chunk": 3}

    def test_span_set_attaches_attrs(self, tracer, ring):
        with tracer.span("work") as span:
            span.set(rows=10)
        assert ring.events[0]["attrs"] == {"rows": 10}

    def test_point_event(self, tracer, ring, clock):
        clock.now = 1.0
        tracer.point("decision", fired=True)
        (event,) = ring.events
        assert event["kind"] == "point"
        assert event["t"] == 1.0
        assert event["dur"] == 0.0

    def test_events_follow_schema(self, tracer, ring, clock):
        with tracer.span("a"):
            pass
        tracer.point("b")
        tracer.emit_metrics({"counters": {}})
        for event in ring.events:
            assert tuple(event.keys()) == EVENT_FIELDS

    def test_seq_monotonic(self, tracer, ring):
        for _ in range(3):
            tracer.point("tick")
        assert [e["seq"] for e in ring.events] == [1, 2, 3]

    def test_span_durations_feed_metrics(self, ring, clock):
        metrics = MetricsRegistry()
        tracer = Tracer(ring, clock=clock, metrics=metrics)
        with tracer.span("work"):
            clock.now = 4.0
        assert metrics.histogram("span.work").count == 1

    def test_nested_spans_record_ancestor_stack(self, tracer, ring):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("inner"):
                pass
        by_name = {}
        for event in ring.events:
            by_name.setdefault(event["name"], []).append(event)
        assert all(
            e["stack"] == ["outer"] for e in by_name["inner"]
        )
        assert by_name["outer"][0]["stack"] == []

    def test_stack_unwinds_after_exit(self, tracer, ring):
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            tracer.point("tick")
        events = {e["name"]: e for e in ring.events}
        # "first" is closed: neither the sibling span nor the point
        # inside "second" may inherit it.
        assert events["second"]["stack"] == []
        assert events["tick"]["stack"] == ["second"]

    def test_stack_unwinds_on_exception(self, tracer, ring):
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                raise RuntimeError("boom")
        with tracer.span("after"):
            pass
        events = {e["name"]: e for e in ring.events}
        assert events["outer"]["stack"] == []
        assert events["after"]["stack"] == []


class TestNullTracer:
    def test_shared_noop_span(self):
        tracer = NullTracer()
        span = tracer.span("anything", chunk=1)
        assert span is NULL_SPAN
        with span as entered:
            entered.set(rows=1)

    def test_disabled_flags(self):
        assert NULL_TRACER.enabled is False
        assert Tracer(RingBufferSink()).enabled is True

    def test_point_and_metrics_are_noops(self):
        NULL_TRACER.point("x", a=1)
        NULL_TRACER.emit_metrics({})
        NULL_TRACER.bind_clock(lambda: 1.0)


class TestRingBufferSink:
    def test_bounded(self):
        ring = RingBufferSink(capacity=2)
        for index in range(5):
            ring.emit({"seq": index})
        assert len(ring) == 2
        assert ring.emitted == 5
        assert ring.dropped == 3
        assert [e["seq"] for e in ring.events] == [3, 4]

    def test_invalid_capacity(self):
        with pytest.raises(ValidationError):
            RingBufferSink(capacity=0)


class TestJsonlSink:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        sink.emit({"seq": 1, "name": "a"})
        sink.emit({"seq": 2, "name": "b"})
        sink.close()
        events = load_jsonl(path)
        assert [e["seq"] for e in events] == [1, 2]

    def test_lazy_open(self, tmp_path):
        path = tmp_path / "never.jsonl"
        JsonlSink(path).close()
        assert not path.exists()

    def test_load_limit(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        for index in range(5):
            sink.emit({"seq": index})
        sink.close()
        assert [e["seq"] for e in load_jsonl(path, limit=2)] == [3, 4]

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            load_jsonl(tmp_path / "absent.jsonl")

    def test_corrupt_line_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"seq": 1}\nnot json\n')
        with pytest.raises(ValidationError):
            load_jsonl(path)


#: Values a trace attribute can hold that an encoder could plausibly
#: spell two ways.
AWKWARD_LEAVES = (
    None, True, False, 0, -1, 2**53 + 1, -(2**63), 10**30,
    0.0, -0.0, 1e22, 1e-7, 5e-324, 2.2250738585072014e-308, 0.1 + 0.2,
    float("inf"), float("-inf"), float("nan"),
    np.float64(0.30000000000000004), np.float64("-inf"),
    "", "plain", "naïve café", "日本語", "\u2028\u2029", "\U0001f600",
    "quote\" back\\slash /", "\x00\x01\x1f\x7f\n\r\t\b\f",
)


def random_value(rng, depth):
    def leaf():
        return AWKWARD_LEAVES[rng.integers(0, len(AWKWARD_LEAVES))]

    kind = rng.integers(0, 4 if depth else 2)
    if kind == 0:
        return leaf()
    if kind == 1:
        return float(rng.standard_normal()) * 10.0 ** rng.integers(-30, 30)
    size = int(rng.integers(0, 4))
    if kind == 2:
        return [random_value(rng, depth - 1) for _ in range(size)]
    # Keys of every type JSON coerces (None, bool, int, float, str).
    return {leaf(): random_value(rng, depth - 1) for _ in range(size)}


def random_event(rng, seq):
    stack_depth = int(rng.choice([0, 0, 1, 3, 40]))
    return {
        "seq": seq,
        "kind": str(rng.choice(["span", "point", "metrics"])),
        "name": f"layer.op{rng.integers(0, 5)}",
        "t": random_value(rng, 0),
        "dur": float(rng.random()),
        "wall_s": float(rng.random()) * 1e-6,
        "stack": [f"outer.{level}" for level in range(stack_depth)],
        "attrs": {
            f"key{index}": random_value(rng, 4)
            for index in range(int(rng.integers(0, 5)))
        },
    }


class TestJsonlBytes:
    """The file is what the ``json.dump``-to-handle loop wrote, byte
    for byte; that loop lives here as the reference."""

    @staticmethod
    def reference_write(events, path):
        with open(path, "w", encoding="utf-8") as handle:
            for event in events:
                json.dump(event, handle, separators=(",", ":"))
                handle.write("\n")

    @pytest.mark.parametrize("seed", range(8), ids=lambda s: f"seed{s}")
    def test_file_equals_the_json_dump_loop(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        events = [random_event(rng, seq) for seq in range(300)]
        sink = JsonlSink(tmp_path / "sink.jsonl")
        for event in events:
            sink.emit(event)
        sink.close()
        self.reference_write(events, tmp_path / "reference.jsonl")
        written = (tmp_path / "sink.jsonl").read_bytes()
        assert written == (tmp_path / "reference.jsonl").read_bytes(), (
            f"seed {seed}"
        )
        assert sink.written == 300 and written.count(b"\n") == 300

    def test_traced_run_equals_the_json_dump_loop(self, tmp_path):
        telemetry = Telemetry(sink=JsonlSink(tmp_path / "sink.jsonl"))
        with telemetry.tracer.span("outer", chunk=np.int64(3).item()):
            with telemetry.tracer.span("inner", rows=50, error=0.25):
                telemetry.tracer.point("tick", note="é\n", deep={"a": [1]})
        telemetry.metrics.counter("c").inc()
        telemetry.metrics.histogram("h").add(1e-9)
        telemetry.flush_metrics()
        telemetry.close()
        self.reference_write(telemetry.events, tmp_path / "reference.jsonl")
        assert (tmp_path / "sink.jsonl").read_bytes() == (
            tmp_path / "reference.jsonl"
        ).read_bytes()


class TestMultiSink:
    def test_alert_point_lands_where_the_nested_chain_put_it(self):
        """``attach_monitor`` appends to the one flat chain; an alert
        the monitor raises *inside* its ``emit`` re-enters the chain
        and must reach ring and user sink in the position (and with
        the ``seq``) the nested ``MultiSink([MultiSink([ring, user]),
        monitor])`` gave it."""

        def run(flat):
            rule = AlertRule(
                name="tick-seen", signal="tick", kind="threshold",
                stat="count", op=">=", value=1.0,
            )
            telemetry = Telemetry(sink=RingBufferSink())
            ring, user = telemetry.sink.sinks
            if flat:
                telemetry.attach_monitor(rules=[rule])
                assert telemetry.sink.sinks == [ring, user, telemetry.monitor]
                assert telemetry.tracer.sink is telemetry.sink
            else:
                monitor = HealthMonitor(rules=[rule])
                monitor.bind(telemetry.tracer, telemetry.metrics)
                telemetry.tracer.sink = MultiSink(
                    [MultiSink([ring, user]), monitor]
                )
            clock = FakeClock()
            telemetry.bind_clock(clock)
            for step in range(6):
                clock.now = step * 0.004  # a window closes every 3rd
                telemetry.tracer.point("tick", step=step)
            return [
                [(e["seq"], e["name"], e["t"]) for e in sink.events]
                for sink in (ring, user)
            ]

        flat, nested = run(flat=True), run(flat=False)
        assert flat == nested
        assert flat[0] == flat[1]
        names = [name for _, name, _ in flat[0]]
        assert "alert.firing" in names
        assert names.index("alert.pending") > names.index("tick")

    def test_fans_out(self):
        first, second = RingBufferSink(), RingBufferSink()
        multi = MultiSink([first, second])
        multi.emit({"seq": 1})
        assert len(first) == 1 and len(second) == 1

    def test_needs_sinks(self):
        with pytest.raises(ValidationError):
            MultiSink([])


class TestTelemetry:
    def test_events_land_in_ring_and_extra_sink(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        telemetry = Telemetry(sink=JsonlSink(path))
        telemetry.tracer.point("tick")
        telemetry.close()
        assert len(telemetry.events) == 1
        assert len(load_jsonl(path)) == 1

    def test_flush_metrics_appends_snapshot(self):
        telemetry = Telemetry()
        telemetry.metrics.counter("c").inc()
        telemetry.flush_metrics()
        (event,) = telemetry.events
        assert event["kind"] == "metrics"
        assert event["attrs"]["counters"] == {"c": 1.0}

    def test_null_telemetry_disabled_and_silent(self):
        assert NULL_TELEMETRY.enabled is False
        NULL_TELEMETRY.tracer.point("ignored")
        NULL_TELEMETRY.flush_metrics()
        assert NULL_TELEMETRY.events == []

    def test_events_are_json_serializable(self):
        telemetry = Telemetry()
        with telemetry.tracer.span("work", chunk=1):
            pass
        telemetry.flush_metrics()
        for event in telemetry.events:
            json.dumps(event)

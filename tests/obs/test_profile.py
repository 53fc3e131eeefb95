"""Unit tests for the cost-attribution profile tree."""

import pytest

from repro.obs.profile import (
    ROOT_NAME,
    build_profile,
    format_profile,
    profile_digest,
    profile_trace,
    subsystem_totals,
)
from repro.obs.sink import JsonlSink
from repro.obs.telemetry import Telemetry


def span_event(name, dur, stack=(), wall_s=0.0, seq=1):
    return {
        "seq": seq,
        "kind": "span",
        "name": name,
        "t": 0.0,
        "dur": dur,
        "wall_s": wall_s,
        "stack": list(stack),
        "attrs": {},
    }


def nested_events():
    """Two observe calls, each wrapping one online pass."""
    return [
        span_event(
            "engine.online_pass", 2.0, stack=("platform.observe",)
        ),
        span_event("platform.observe", 3.0),
        span_event(
            "engine.online_pass", 2.0, stack=("platform.observe",)
        ),
        span_event("platform.observe", 3.0),
        {"seq": 9, "kind": "point", "name": "chunk.processed",
         "t": 0.0, "dur": 0.0, "wall_s": 0.0, "attrs": {}},
    ]


class TestBuildProfile:
    def test_empty_stream(self):
        root = build_profile([])
        assert root.name == ROOT_NAME
        assert root.count == 0
        assert root.cum_cost == 0.0
        assert root.children == {}

    def test_folds_along_stack(self):
        root = build_profile(nested_events())
        observe = root.children["platform.observe"]
        online = observe.children["engine.online_pass"]
        assert observe.count == 2
        assert observe.cum_cost == 6.0
        assert online.count == 2
        assert online.cum_cost == 4.0

    def test_self_cost_subtracts_children(self):
        root = build_profile(nested_events())
        observe = root.children["platform.observe"]
        assert observe.self_cost == pytest.approx(2.0)
        assert root.cum_cost == pytest.approx(6.0)
        assert root.count == 2

    def test_points_do_not_contribute(self):
        root = build_profile(nested_events())
        assert "chunk.processed" not in root.children

    def test_stackless_events_fold_flat(self):
        events = [span_event("engine.train_step", 5.0)]
        del events[0]["stack"]
        root = build_profile(events)
        assert root.children["engine.train_step"].cum_cost == 5.0

    def test_walk_orders_children_by_descending_cost(self):
        events = [
            span_event("a.small", 1.0),
            span_event("b.big", 9.0),
        ]
        root = build_profile(events)
        names = [node.name for _, node in root.walk()]
        assert names == [ROOT_NAME, "b.big", "a.small"]


class TestSubsystemTotals:
    def test_rollup_uses_self_cost(self):
        totals = subsystem_totals(build_profile(nested_events()))
        assert totals["platform"]["self_cost"] == pytest.approx(2.0)
        assert totals["engine"]["self_cost"] == pytest.approx(4.0)
        # Self costs partition the run: they sum to the root total.
        assert sum(
            entry["self_cost"] for entry in totals.values()
        ) == pytest.approx(6.0)


class TestDigest:
    def test_identical_trees_collide(self):
        first = build_profile(nested_events())
        second = build_profile(nested_events())
        assert profile_digest(first) == profile_digest(second)

    def test_cost_change_changes_digest(self):
        events = nested_events()
        events[1]["dur"] = 30.0
        assert profile_digest(
            build_profile(events)
        ) != profile_digest(build_profile(nested_events()))

    def test_wall_time_is_excluded(self):
        events = nested_events()
        for event in events:
            event["wall_s"] = 123.0
        assert profile_digest(
            build_profile(events)
        ) == profile_digest(build_profile(nested_events()))


class TestExports:
    def test_format_profile_renders_digest_and_paths(self):
        root = build_profile(nested_events())
        text = format_profile(root)
        assert "platform.observe" in text
        assert "engine.online_pass" in text
        assert f"profile digest: {profile_digest(root)}" in text

    def test_format_profile_empty_tree_no_division(self):
        text = format_profile(build_profile([]))
        assert "profile digest:" in text


class TestProfileTrace:
    def test_round_trip_through_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        telemetry = Telemetry(sink=JsonlSink(path))
        with telemetry.tracer.span("platform.observe"):
            with telemetry.tracer.span("engine.online_pass"):
                pass
        telemetry.close()
        root = profile_trace(path)
        observe = root.children["platform.observe"]
        assert "engine.online_pass" in observe.children

"""Unit tests for bench records and the baseline trajectory store."""

import json
from pathlib import Path

import pytest

from repro.exceptions import ValidationError
from repro.obs.baseline import (
    RECORD_SCHEMA,
    BaselineStore,
    BenchRecord,
    MetricValue,
    current_git_sha,
    environment_fingerprint,
    make_record,
)
from repro.obs.telemetry import Telemetry


def record(name="bench_a", **metrics):
    return BenchRecord(
        name=name,
        metrics=metrics
        or {"total_cost": MetricValue(1.5, "cost")},
        seed=7,
        params={"num_chunks": 40},
    )


class TestMetricValue:
    def test_kind_vocabulary_enforced(self):
        # Wall-clock is not a kind: it lives in benchmarks/e2e.
        for kind in ("latency", "wall"):
            with pytest.raises(ValidationError):
                MetricValue(1.0, kind)


class TestBenchRecord:
    def test_name_must_be_bare(self):
        with pytest.raises(ValidationError):
            record(name="has space")
        with pytest.raises(ValidationError):
            record(name="has/slash")
        with pytest.raises(ValidationError):
            record(name="")

    def test_metric_lookup_error_names_alternatives(self):
        with pytest.raises(ValidationError, match="total_cost"):
            record().metric("nope")

    def test_round_trip(self):
        original = record()
        restored = BenchRecord.from_dict(original.to_dict())
        assert restored == original

    def test_from_dict_rejects_other_schema(self):
        raw = record().to_dict()
        raw["schema"] = RECORD_SCHEMA + 1
        with pytest.raises(ValidationError, match="schema"):
            BenchRecord.from_dict(raw)

    def test_make_record_stamps_provenance(self):
        built = make_record(
            "bench_a",
            {"total_cost": MetricValue(1.0, "cost")},
            seed=3,
        )
        assert built.env == environment_fingerprint()
        assert built.git_sha == current_git_sha()
        assert built.created_unix > 0
        assert built.seed == 3


class TestBaselineStore:
    def test_append_and_load_round_trip(self, tmp_path):
        store = BaselineStore(tmp_path / "baselines")
        first = record()
        second = record(
            total_cost=MetricValue(2.0, "cost"),
        )
        path = store.append(first)
        store.append(second)
        assert path == store.path_for("bench_a")
        assert path.name == "BENCH_bench_a.json"
        loaded = store.load("bench_a")
        assert [r.metrics["total_cost"].value for r in loaded] == [
            1.5,
            2.0,
        ]
        assert store.latest("bench_a") == loaded[-1]

    def test_missing_trajectory_is_empty(self, tmp_path):
        store = BaselineStore(tmp_path)
        assert store.load("absent") == []
        assert store.latest("absent") is None
        assert store.names() == []

    def test_names_sorted(self, tmp_path):
        store = BaselineStore(tmp_path)
        store.append(record(name="zz"))
        store.append(record(name="aa"))
        assert store.names() == ["aa", "zz"]

    def test_load_rejects_foreign_json(self, tmp_path):
        store = BaselineStore(tmp_path)
        store.path_for("bad").parent.mkdir(
            parents=True, exist_ok=True
        )
        store.path_for("bad").write_text(json.dumps({"records": 3}))
        with pytest.raises(ValidationError):
            store.load("bad")

    @pytest.mark.parametrize(
        "metrics",
        [
            {"a": {"kind": "cost"}},
            {"a": 3.0},
            {"a": {"value": "fast", "kind": "cost"}},
            {"a": {"value": 1.0, "kind": "wall"}},
        ],
        ids=["no-value", "bare-number", "text-value", "wall-kind"],
    )
    def test_load_names_file_and_metric_of_a_malformed_entry(
        self, tmp_path, metrics
    ):
        store = BaselineStore(tmp_path)
        raw = record().to_dict()
        raw["metrics"] = metrics
        store.path_for("bad").write_text(
            json.dumps({"schema": RECORD_SCHEMA, "records": [raw]})
        )
        with pytest.raises(ValidationError) as caught:
            store.load("bad")
        assert "BENCH_bad.json" in str(caught.value)
        assert "'a'" in str(caught.value)

    def test_load_rejects_a_record_that_is_not_a_mapping(self, tmp_path):
        store = BaselineStore(tmp_path)
        store.path_for("bad").write_text(
            json.dumps({"schema": RECORD_SCHEMA, "records": [3]})
        )
        with pytest.raises(ValidationError, match="BENCH_bad.json"):
            store.load("bad")

    def test_file_is_schema_versioned_and_newline_terminated(
        self, tmp_path
    ):
        store = BaselineStore(tmp_path)
        path = store.append(record())
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text)["schema"] == RECORD_SCHEMA

    def test_append_emits_telemetry(self, tmp_path):
        telemetry = Telemetry()
        store = BaselineStore(tmp_path, telemetry=telemetry)
        store.append(record())
        telemetry.flush_metrics()
        points = [
            event
            for event in telemetry.events
            if event["name"] == "perf.record"
        ]
        assert len(points) == 1


def test_committed_store_loads_under_the_metric_vocabulary():
    root = Path(__file__).parents[2] / "benchmarks" / "baselines"
    store = BaselineStore(root)
    assert store.names()
    for name in store.names():
        assert store.latest(name).metrics, name

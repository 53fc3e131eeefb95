"""Self-tests of the benchmark harness (test scale, seconds).

Not part of tier-1: run with ``python -m pytest benchmarks/e2e -q``.
"""

import json
import re

import pytest

from benchmarks.e2e.compare import compare, spread, verdict
from benchmarks.e2e.run import ROOT, check_outputs, measure
from benchmarks.e2e.trace import (
    PREDICT,
    SpanRecorder,
    by_name,
    instrument,
    resolve,
)
from benchmarks.e2e.workloads import WORKLOADS

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_resolve_links_parents_and_subtracts_children():
    # predict[0,10] > a[1,4], b[5,9] > c[6,7]; then predict[10,12].
    spans = [
        ("a", 1.0, 4.0),
        ("c", 6.0, 7.0),
        ("b", 5.0, 9.0),
        (PREDICT, 0.0, 10.0),
        (PREDICT, 10.0, 12.0),
    ]
    a, c, b, first, second = resolve(spans)
    assert (a.parent, c.parent, b.parent) == (3, 2, 3)
    assert (first.parent, second.parent) == (-1, -1)
    assert first.self_seconds == pytest.approx(10.0 - 3.0 - 4.0)
    assert b.self_seconds == pytest.approx(4.0 - 1.0)
    assert (a.self_seconds, c.self_seconds) == (3.0, 1.0)
    assert [s.chunk for s in (a, c, b, first, second)] == [0, 0, 0, 0, 1]
    layers = by_name([a, c, b, first, second])
    assert layers[PREDICT].calls == 2
    assert sum(layer.self_seconds for layer in layers.values()) == (
        pytest.approx(12.0)
    )


def test_recorded_calls_nest_like_the_call_tree():
    class Node:
        def __init__(self, child=None):
            self.child = child

        def work(self, depth):
            if self.child is not None:
                self.child.work(depth + 1)
                self.child.work(depth + 1)
            return depth

    leaf = Node()
    root = Node(leaf)
    recorder = SpanRecorder()
    recorder.wrap(root, "work", "root", count=lambda depth: 5)
    recorder.wrap(leaf, "work", "leaf")
    assert root.work(0) == 0
    first, second, top = resolve(recorder.spans)
    assert [first.name, second.name, top.name] == ["leaf", "leaf", "root"]
    assert first.parent == second.parent == 2 and top.parent == -1
    assert top.self_seconds == pytest.approx(
        top.seconds - first.seconds - second.seconds
    )
    assert recorder.counts == {"root": 5}
    with recorder.suspended([leaf]):
        assert "work" not in vars(leaf) and "work" in vars(root)
    assert "work" in vars(leaf)


def _instances(deployment):
    platform = deployment.platform
    manager = platform.manager
    return [
        platform,
        manager,
        platform.engine,
        platform.proactive,
        platform.data_manager,
        platform.data_manager.sampler,
        platform.data_manager.storage,
        manager.trainer,
        manager.model,
        manager.optimizer,
        *manager.pipeline,
    ]


def test_tracing_one_deployment_leaves_the_next_untraced(tmp_path):
    workload = WORKLOADS["url_continuous"]
    scenario = workload.scenario("test")
    reference = _instances(workload.deploy(scenario, tmp_path))
    attributes = [set(vars(instance)) for instance in reference]
    classes = [dict(vars(type(instance))) for instance in reference]

    traced = workload.deploy(scenario, tmp_path)
    instrument(traced, SpanRecorder())
    assert "predict" in vars(traced.platform)

    fresh = _instances(workload.deploy(scenario, tmp_path))
    assert [set(vars(instance)) for instance in fresh] == attributes
    assert [dict(vars(type(instance))) for instance in fresh] == classes


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def result(request, tmp_path_factory):
    return measure(
        WORKLOADS[request.param],
        seed=None,
        scale="test",
        seconds=0.0,
        trace=True,
        run_root=tmp_path_factory.mktemp("runs"),
    )


def test_traced_repeat_reproduces_the_untraced_outputs(result):
    # The traced repeat is checked against the first untraced one;
    # any difference in cost, error or counters is a failed operation.
    assert result["failures"] == []
    assert result["ops_failed"] == 0
    assert result["ops_attempted"] == 2 * (
        result["outputs"]["chunks_processed"] + 1
    )


def test_spans_cover_the_traced_run(result):
    assert result["per_layer"]["trace.coverage"] >= 0.9
    assert result["layer_self_s"]["unattributed"] <= 0.1 * result["traced_run_s"]


def test_every_metric_is_declared_in_benchmark_json(result):
    declared = {
        "end_to_end": {m["name"] for m in SPEC["end_to_end"]},
        "per_layer": {m["name"] for m in SPEC["per_layer"]},
    }
    assert set(result["end_to_end"]) == declared["end_to_end"]
    assert set(result["per_layer"]) <= declared["per_layer"]
    for name in [*result["end_to_end"], *result["per_layer"]]:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name)


def test_only_the_stacked_workload_reports_obs_and_reliability(result):
    stacked = result["workload"] == "url_stack"
    layers = {name.split(".")[0] for name in result["per_layer"]}
    assert ({"obs", "reliability"} <= layers) == stacked
    assert ("obs" in result["layer_self_s"]) == stacked


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}


def test_output_check_reports_golden_and_repeat_mismatches():
    outputs = {
        "chunks_processed": 3,
        "total_cost": 1.5,
        "final_error": 0.25,
        "proactive_trainings": 1,
        "chunks_sampled": 2,
        "chunks_rematerialized": 0,
    }
    assert check_outputs(outputs, 3, dict(outputs), dict(outputs)) == []
    assert check_outputs(outputs, 4, None, None) != []
    drifted = dict(outputs, total_cost=1.5 * (1 + 1e-6))
    assert check_outputs(outputs, 3, drifted, None) != []
    assert check_outputs(outputs, 3, None, drifted) != []
    assert check_outputs(outputs, 3, None, dict(outputs, chunks_sampled=3)) != []


def test_verdicts():
    steady_a, steady_b = [100.0, 101.0, 99.0, 100.0], [100.5, 101.5, 99.5, 100.5]
    assert verdict(100.0, 100.5, steady_a, steady_b, "lower", 0.10) == "same"
    assert verdict(100.0, 120.0, steady_a, [120.0] * 4, "lower", 0.10) == "worse"
    assert verdict(100.0, 120.0, steady_a, [120.0] * 4, "higher", 0.10) == "better"
    assert verdict(100.0, 80.0, steady_a, [80.0] * 4, "higher", 0.10) == "worse"
    wide = [80.0, 100.0, 120.0, 140.0]
    assert spread(wide) > 0.10
    assert verdict(100.0, 110.0, steady_a, wide, "lower", 0.10) == "unresolved"
    # Wide but every repeat of B beats every repeat of A.
    assert (
        verdict(100.0, 40.0, steady_a, [20.0, 40.0, 60.0, 40.0], "lower", 0.10)
        == "better"
    )
    # One repeat says nothing about its spread.
    assert verdict(100.0, 100.5, steady_a, [100.5], "lower", 0.10) == "unresolved"
    # One value a process (peak_rss_mb): only the values are compared.
    assert verdict(100.0, 100.5, None, None, "lower", 0.10) == "same"
    assert verdict(100.0, 120.0, None, None, "lower", 0.10) == "worse"


def _result(seed, rows_per_s):
    return {
        "seed": seed,
        "repeats": 2,
        "ops_attempted": 10,
        "ops_failed": 0,
        "end_to_end": {m["name"]: rows_per_s for m in SPEC["end_to_end"]},
        "per_repeat": {"rows_per_s": [rows_per_s, rows_per_s]},
    }


def test_compare_refuses_sets_that_do_not_match(tmp_path, capsys):
    def write(directory, **results):
        (tmp_path / directory).mkdir()
        for workload, result in results.items():
            path = tmp_path / directory / f"{workload}.json"
            path.write_text(json.dumps(result))
        return tmp_path / directory

    both = write("a", url=_result(7, 100.0), taxi=_result(3, 100.0))
    assert compare(both, both) == 0
    assert compare(both, write("b", url=_result(7, 100.0))) == 2
    other_seed = write("c", url=_result(8, 100.0), taxi=_result(3, 100.0))
    assert compare(both, other_seed) == 2
    slower = write("d", url=_result(7, 50.0), taxi=_result(3, 100.0))
    assert compare(both, slower) == 1
    assert "worse" in capsys.readouterr().out

"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.exceptions.ConvergenceWarning"
)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["exp1"])
        assert args.dataset == "url"
        assert args.scale == "test"
        assert args.seed is None

    def test_scenario_options(self):
        args = build_parser().parse_args(
            ["fig6", "--dataset", "taxi", "--scale", "bench",
             "--seed", "5"]
        )
        assert args.dataset == "taxi"
        assert args.scale == "bench"
        assert args.seed == 5

    def test_table4_options(self):
        args = build_parser().parse_args(
            ["table4", "--chunks", "500", "--sample-size", "10"]
        )
        assert args.chunks == 500
        assert args.sample_size == 10

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_invalid_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["exp1", "--dataset", "mnist"])

    def test_exp1_trace_option(self):
        args = build_parser().parse_args(
            ["exp1", "--trace", "run.jsonl"]
        )
        assert args.trace == "run.jsonl"
        assert build_parser().parse_args(["exp1"]).trace is None

    def test_obs_options(self):
        args = build_parser().parse_args(
            ["obs", "tail", "run.jsonl", "--limit", "7"]
        )
        assert args.action == "tail"
        assert args.trace == "run.jsonl"
        assert args.limit == 7

    def test_obs_invalid_action_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs", "explode", "run.jsonl"])

    def test_serve_options(self):
        args = build_parser().parse_args(
            ["serve", "--registry", "reg", "--mode", "shadow",
             "--fraction", "0.25", "--trace", "t.jsonl"]
        )
        assert args.registry == "reg"
        assert args.mode == "shadow"
        assert args.fraction == 0.25
        assert args.trace == "t.jsonl"
        defaults = build_parser().parse_args(["serve"])
        assert defaults.registry is None
        assert defaults.mode == "canary"

    def test_serve_invalid_mode_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--mode", "yolo"])

    def test_registry_options(self):
        args = build_parser().parse_args(
            ["registry", "promote", "v0002", "--registry", "reg",
             "--reason", "ship it"]
        )
        assert args.action == "promote"
        assert args.version == "v0002"
        assert args.registry_dir == "reg"
        assert args.reason == "ship it"

    def test_registry_requires_directory(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["registry", "list"])

    def test_exp5_scenario_options(self):
        args = build_parser().parse_args(
            ["exp5", "--dataset", "taxi", "--scale", "test"]
        )
        assert args.dataset == "taxi"
        assert args.scale == "test"


class TestExecution:
    """End-to-end CLI runs at test scale (smallest possible)."""

    def test_exp1(self, capsys):
        assert main(["exp1", "--scale", "test"]) == 0
        out = capsys.readouterr().out
        assert "final-cost ratio" in out
        assert "continuous" in out

    def test_table4(self, capsys):
        assert main(
            ["table4", "--chunks", "300", "--sample-size", "10",
             "--sample-every", "10"]
        ) == 0
        out = capsys.readouterr().out
        assert "uniform" in out
        assert "time" in out

    def test_fig6(self, capsys):
        assert main(
            ["fig6", "--dataset", "taxi", "--scale", "test"]
        ) == 0
        assert "average error" in capsys.readouterr().out

    def test_fig8(self, capsys):
        assert main(
            ["fig8", "--dataset", "taxi", "--scale", "test"]
        ) == 0
        assert "cost ratio" in capsys.readouterr().out

    def test_table3(self, capsys):
        assert main(
            ["table3", "--dataset", "taxi", "--scale", "test"]
        ) == 0
        assert "adadelta" in capsys.readouterr().out


class TestExecutionExtended:
    """The remaining CLI commands, at the smallest usable scale."""

    def test_fig5(self, capsys):
        assert main(
            ["fig5", "--dataset", "taxi", "--scale", "test"]
        ) == 0
        out = capsys.readouterr().out
        assert "initial-training winner" in out

    def test_fig7(self, capsys):
        assert main(
            ["fig7", "--dataset", "taxi", "--scale", "test"]
        ) == 0
        out = capsys.readouterr().out
        assert "NoOptimization" in out

    def test_seed_override(self, capsys):
        assert main(
            ["fig6", "--dataset", "taxi", "--scale", "test",
             "--seed", "99"]
        ) == 0
        assert "average error" in capsys.readouterr().out


class TestObservabilityCommands:
    """exp1 --trace plus the obs summary/tail subcommands."""

    def test_exp1_trace_then_summarize_and_tail(self, capsys, tmp_path):
        trace = tmp_path / "run.jsonl"
        assert main(
            ["exp1", "--scale", "test", "--trace", str(trace)]
        ) == 0
        out = capsys.readouterr().out
        assert f"trace written to {trace}" in out
        assert "spans (virtual-clock durations" in out
        assert trace.exists()

        assert main(["obs", "summary", str(trace)]) == 0
        out = capsys.readouterr().out
        # The trace must cover engine, platform, scheduler, cache,
        # and sampler instrumentation.
        assert "engine.online_pass" in out
        assert "platform.proactive_training" in out
        assert "scheduler.decision" in out
        assert "cache.hits" in out
        assert "sampler.chunk_age" in out

        assert main(["obs", "tail", str(trace), "--limit", "5"]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 5

    def test_obs_summary_missing_file_raises(self, tmp_path):
        from repro.exceptions import ValidationError

        with pytest.raises(ValidationError):
            main(["obs", "summary", str(tmp_path / "absent.jsonl")])


class TestServingCommands:
    """repro serve + the registry subcommands, sharing one registry."""

    def test_serve_then_operate_registry(self, capsys, tmp_path):
        root = tmp_path / "registry"
        assert main(
            ["serve", "--dataset", "url", "--scale", "test",
             "--registry", str(root)]
        ) == 0
        out = capsys.readouterr().out
        assert "bootstrapping the initial version" in out
        assert "serving error" in out
        assert "v0001" in out
        assert (root / "registry.json").exists()

        assert main(["registry", "list", "--registry", str(root)]) == 0
        out = capsys.readouterr().out
        assert "live: v" in out
        live = [
            line for line in out.splitlines()
            if line.startswith("live: ")
        ][0].split()[-1]

        assert main(
            ["registry", "show", live, "--registry", str(root)]
        ) == 0
        out = capsys.readouterr().out
        assert "checksum" in out
        assert "status: live" in out

        assert main(
            ["registry", "gc", "--registry", str(root), "--keep", "0"]
        ) == 0
        assert "collected" in capsys.readouterr().out

    def test_serve_resumes_existing_registry(self, capsys, tmp_path):
        root = tmp_path / "registry"
        assert main(
            ["serve", "--dataset", "url", "--scale", "test",
             "--registry", str(root)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["serve", "--dataset", "url", "--scale", "test",
             "--registry", str(root)]
        ) == 0
        out = capsys.readouterr().out
        assert "resuming: v" in out

    def test_serve_trace_ends_with_the_metrics_snapshot(
        self, capsys, tmp_path
    ):
        """Like every traced command, ``serve --trace`` closes its
        JSONL with the final counters (it used to write none, so
        ``obs summary`` had no metrics to show)."""
        from repro.obs import load_jsonl

        trace = tmp_path / "serve.jsonl"
        assert main(
            ["serve", "--dataset", "url", "--scale", "test",
             "--trace", str(trace)]
        ) == 0
        assert f"trace written to {trace}" in capsys.readouterr().out
        last = load_jsonl(trace)[-1]
        assert last["kind"] == "metrics"
        assert last["attrs"]["counters"]["serving.batches"] > 0
        assert main(["obs", "summary", str(trace)]) == 0
        assert "serving.batches" in capsys.readouterr().out

    def test_registry_missing_manifest_fails(self, tmp_path):
        with pytest.raises(SystemExit, match="no registry manifest"):
            main(["registry", "list", "--registry", str(tmp_path)])

    def test_registry_show_requires_version(self, tmp_path, capsys):
        root = tmp_path / "registry"
        assert main(
            ["serve", "--dataset", "url", "--scale", "test",
             "--registry", str(root)]
        ) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit, match="VERSION"):
            main(["registry", "show", "--registry", str(root)])


class TestExp5Command:
    def test_exp5_url(self, capsys):
        assert main(
            ["exp5", "--dataset", "url", "--scale", "test"]
        ) == 0
        out = capsys.readouterr().out
        assert "frozen" in out
        assert "blind" in out
        assert "gated" in out
        assert "gated vs blind improvement" in out


class TestReliabilityParsers:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.approach == "continuous"
        assert args.checkpoint_dir is None
        assert args.cadence == 10
        assert args.keep == 3
        assert args.kill_at is None
        assert args.sigkill_at is None
        assert args.retry is False

    def test_run_reliability_options(self):
        args = build_parser().parse_args(
            ["run", "--approach", "online", "--checkpoint-dir",
             "/tmp/ck", "--cadence", "5", "--keep", "2",
             "--kill-at", "12", "--retry"]
        )
        assert args.approach == "online"
        assert args.checkpoint_dir == "/tmp/ck"
        assert args.cadence == 5
        assert args.keep == 2
        assert args.kill_at == 12
        assert args.retry is True

    def test_exp6_options(self):
        args = build_parser().parse_args(
            ["exp6", "--kill-after", "15", "--cadences", "3", "5"]
        )
        assert args.kill_after == 15
        assert args.cadences == [3, 5]

    def test_recover_requires_checkpoint_dir(self):
        with pytest.raises(SystemExit, match="checkpoint-dir"):
            main(["recover", "--dataset", "url", "--scale", "test"])


class TestRunRecoverCommands:
    def test_kill_then_recover_round_trip(self, tmp_path, capsys):
        """The CLI quick-start: crash exits 17, recover finishes."""
        base = [
            "--approach", "online", "--dataset", "url",
            "--scale", "test", "--checkpoint-dir", str(tmp_path),
            "--cadence", "4",
        ]
        with pytest.raises(SystemExit) as crash:
            main(["run", *base, "--kill-at", "9"])
        assert crash.value.code == 17
        out = capsys.readouterr().out
        assert "crashed: injected crash" in out
        assert "last checkpoint at chunk 8" in out
        assert list(tmp_path.glob("ckpt-*.ckpt"))

        assert main(["recover", *base]) == 0
        out = capsys.readouterr().out
        assert "recovered from checkpoint at chunk 8" in out
        assert "chunks=40" in out

    def test_uninterrupted_run(self, capsys):
        assert main(
            ["run", "--approach", "online", "--dataset", "url",
             "--scale", "test"]
        ) == 0
        out = capsys.readouterr().out
        assert "final_error" in out


class TestExp6Command:
    def test_exp6_claims(self, capsys):
        assert main(
            ["exp6", "--dataset", "url", "--scale", "test",
             "--cadences", "4", "13", "--kill-after", "16"]
        ) == 0
        out = capsys.readouterr().out
        assert "redo_monotone=1" in out
        assert "all_identical=1" in out
        assert "retry_masked=1" in out


class TestPerfParser:
    def test_defaults(self):
        args = build_parser().parse_args(["perf", "profile"])
        assert args.action == "profile"
        assert args.approach == "continuous"
        assert args.store == "benchmarks/baselines"
        assert args.against is None
        assert args.gate_profile is False
        assert args.record_after_check is False

    def test_options(self):
        args = build_parser().parse_args(
            ["perf", "check", "--dataset", "taxi", "--approach",
             "online", "--against", "./b", "--gate-profile",
             "--record"]
        )
        assert args.against == "./b"
        assert args.gate_profile is True
        assert args.record_after_check is True

    def test_invalid_action_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["perf", "flamegraph"])

    def test_profile_option_on_experiments(self):
        for command in ("exp1", "fig5", "fig6", "fig7", "fig8",
                        "exp5", "exp6"):
            args = build_parser().parse_args(
                [command, "--profile", "p.json"]
            )
            assert args.profile == "p.json"


class TestPerfCommands:
    """The perf observatory loop: profile, record, check, report."""

    def test_profile_prints_tree_and_digest(self, capsys, tmp_path):
        json_out = tmp_path / "profile.json"
        collapsed = tmp_path / "profile.folded"
        assert main(
            ["perf", "profile", "--scale", "test",
             "--json", str(json_out), "--collapsed", str(collapsed)]
        ) == 0
        out = capsys.readouterr().out
        assert "platform.observe" in out
        assert "profile digest:" in out
        assert "self cost by subsystem:" in out
        assert json_out.exists()
        assert collapsed.read_text().startswith("run;")

    def test_record_check_report_loop(self, capsys, tmp_path):
        store = str(tmp_path / "baselines")
        assert main(
            ["perf", "record", "--scale", "test", "--store", store]
        ) == 0
        out = capsys.readouterr().out
        assert "recorded run_url_test_continuous" in out

        # Identical seed: every metric must gate clean.
        assert main(
            ["perf", "check", "--scale", "test", "--against", store]
        ) == 0
        out = capsys.readouterr().out
        assert "OK — no regressions" in out
        assert "profile_digest" in out

        assert main(
            ["perf", "report", "--store", store]
        ) == 0
        out = capsys.readouterr().out
        assert "trajectory: run_url_test_continuous" in out
        assert "1 record(s)" in out

    def test_check_on_empty_store_founds_baseline(self, capsys, tmp_path):
        store = str(tmp_path / "empty")
        assert main(
            ["perf", "check", "--scale", "test", "--against", store]
        ) == 0
        out = capsys.readouterr().out
        assert "no baseline trajectory yet" in out

    def test_check_flags_changed_workload(self, capsys, tmp_path):
        store = str(tmp_path / "baselines")
        assert main(
            ["perf", "record", "--scale", "test", "--store", store]
        ) == 0
        capsys.readouterr()
        # A different seed is a different workload: the virtual-cost
        # metrics move and the exact gate must fail.
        assert main(
            ["perf", "check", "--scale", "test", "--seed", "99",
             "--against", store, "--gate-profile"]
        ) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out

    def test_check_record_appends_on_pass(self, capsys, tmp_path):
        store = str(tmp_path / "baselines")
        assert main(
            ["perf", "record", "--scale", "test", "--store", store]
        ) == 0
        capsys.readouterr()
        assert main(
            ["perf", "check", "--scale", "test", "--against", store,
             "--record"]
        ) == 0
        capsys.readouterr()
        assert main(["perf", "report", "--store", store]) == 0
        assert "2 record(s)" in capsys.readouterr().out

    def test_profile_folds_existing_trace(self, capsys, tmp_path):
        trace = tmp_path / "run.jsonl"
        assert main(
            ["exp1", "--scale", "test", "--trace", str(trace)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["perf", "profile", "--trace", str(trace)]
        ) == 0
        out = capsys.readouterr().out
        assert "engine.online_pass" in out
        assert "profile digest:" in out

    def test_exp1_profile_flag(self, capsys, tmp_path):
        profile = tmp_path / "exp1_profile.json"
        assert main(
            ["exp1", "--scale", "test", "--profile", str(profile)]
        ) == 0
        out = capsys.readouterr().out
        assert f"profile written to {profile}" in out
        assert "self cost by subsystem:" in out
        assert profile.exists()


class TestLineageCli:
    def test_lineage_flag_parsed(self):
        for command in ("exp1", "exp5", "run", "recover"):
            args = build_parser().parse_args(
                [command, "--lineage", "lineage.json"]
            )
            assert args.lineage == "lineage.json"
            assert build_parser().parse_args([command]).lineage is None

    def test_obs_lineage_options(self):
        args = build_parser().parse_args(
            ["obs", "lineage", "blame", "lineage.json",
             "--version", "v0002"]
        )
        assert args.action == "lineage"
        assert args.trace == "blame"
        assert args.path == "lineage.json"
        assert args.lineage_version == "v0002"
        args = build_parser().parse_args(
            ["obs", "lineage", "trace", "lineage.json",
             "--chunk", "chunk:3"]
        )
        assert args.lineage_chunk == "chunk:3"

    def test_exp5_export_then_query(self, capsys, tmp_path):
        lineage = tmp_path / "lineage.json"
        assert main(
            ["exp5", "--scale", "test", "--lineage", str(lineage)]
        ) == 0
        out = capsys.readouterr().out
        assert f"lineage graph written to {lineage}" in out
        assert "provenance ledger" in out
        assert lineage.exists()

        assert main(["obs", "lineage", "show", str(lineage)]) == 0
        assert "live[gated]" in capsys.readouterr().out

        assert main(
            ["obs", "lineage", "blame", str(lineage),
             "--version", "model:blind:v0002"]
        ) == 0
        out = capsys.readouterr().out
        assert "blame model:blind:v0002" in out
        assert "chunk:" in out

        assert main(
            ["obs", "lineage", "trace", str(lineage),
             "--chunk", "chunk:0"]
        ) == 0
        assert "models:" in capsys.readouterr().out

    def test_obs_lineage_requires_path_and_options(self, tmp_path):
        with pytest.raises(SystemExit, match="path"):
            main(["obs", "lineage", "show"])
        ledger_file = tmp_path / "lineage.json"
        from repro.obs import LineageLedger

        LineageLedger().write(ledger_file)
        with pytest.raises(SystemExit, match="--version"):
            main(["obs", "lineage", "blame", str(ledger_file)])
        with pytest.raises(SystemExit, match="--chunk"):
            main(["obs", "lineage", "trace", str(ledger_file)])
        with pytest.raises(SystemExit, match="sub-action"):
            main(["obs", "lineage", "bogus", str(ledger_file)])

    def test_run_with_lineage_and_checkpoints(self, capsys, tmp_path):
        lineage = tmp_path / "lineage.json"
        assert main(
            ["run", "--approach", "continuous", "--scale", "test",
             "--checkpoint-dir", str(tmp_path / "ckpt"),
             "--cadence", "3", "--lineage", str(lineage)]
        ) == 0
        assert lineage.exists()
        assert "provenance ledger" in capsys.readouterr().out

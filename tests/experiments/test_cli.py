"""Tests for the command-line interface."""

import argparse
import json
import shutil
from pathlib import Path

import pytest

from repro.cli import build_parser, main

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.exceptions.ConvergenceWarning"
)

#: Every command ``repro --help`` lists: the paper's seven, the
#: extensions' drivers, and the two tools.
COMMANDS = (
    "exp1", "table3", "fig5", "fig6", "table4", "fig7", "fig8",
    "exp5", "exp6", "exp8", "serve", "registry", "run",
    "recover", "obs", "lint",
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

    def test_one_command_per_experiment(self):
        (commands,) = [
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        assert sorted(commands.choices) == sorted(COMMANDS)

    @pytest.mark.parametrize(
        "argv",
        [
            # 'traffic' folded into exp7, 'fleet' into run/recover
            # and exp8; exp7 and its simulator were then deleted.
            ["traffic", "synth"],
            ["traffic", "replay"],
            ["fleet", "run"],
            ["fleet", "replay"],
            ["fleet", "status", "--checkpoint-dir", "d"],
            ["exp7", "--skip-identity-check"],
            ["exp8", "--skip-identity-check"],
            ["run", "--approach", "fleet", "--spec", "fleet.json"],
            ["run", "--approach", "fleet", "--policy", "round_robin"],
            ["run", "--approach", "fleet", "--sigkill-at-epoch", "5"],
            ["exp7", "--scale", "test"],
        ],
    )
    def test_folded_commands_and_options_are_usage_errors(self, argv):
        with pytest.raises(SystemExit) as error:
            build_parser().parse_args(argv)
        assert error.value.code == 2

    def test_fleet_options(self):
        run = build_parser().parse_args(["run", "--approach", "fleet"])
        exp8 = build_parser().parse_args(["exp8"])
        assert (run.tenants, run.chunks, run.rows) == (6, 16, 12)
        assert (exp8.tenants, exp8.chunks, exp8.rows) == (24, 16, 12)
        assert run.seed is None and exp8.seed is None

    def test_invalid_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["exp1", "--dataset", "mnist"])

    def test_exp1_run_dir_option(self):
        args = build_parser().parse_args(["exp1", "--run-dir", "run1"])
        assert args.run_dir == "run1"
        assert build_parser().parse_args(["exp1"]).run_dir is None

    @pytest.mark.parametrize(
        "argv",
        [
            ["exp1", "--trace", "run.jsonl"],
            ["fig7", "--profile", "p.json"],
            ["run", "--monitor", "health.json"],
            ["exp6", "--monitor-window", "0.02"],
            ["exp5", "--lineage", "lineage.json"],
            ["obs", "alerts", "health.json"],
            ["obs", "health", "run.jsonl", "--rules", "rules.json"],
            ["perf", "profile"],
            ["obs", "summary", "t"],
            ["obs", "lineage", "show", "l"],
            ["obs", "D", "--limit", "5"],
        ],
    )
    def test_one_flag_instruments_a_run(self, argv):
        # --run-dir replaced the per-artifact flags, and 'obs DIR'
        # replaced the readers of each artifact.
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    def test_obs_options(self):
        args = build_parser().parse_args(["obs", "run1"])
        assert args.run_dir == "run1"
        assert args.lineage_version is None
        assert args.lineage_chunk is None

    def test_obs_invalid_action_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs", "explode", "run.jsonl"])

    def test_serve_options(self):
        args = build_parser().parse_args(
            ["serve", "--registry", "reg", "--mode", "shadow",
             "--fraction", "0.25", "--run-dir", "run1"]
        )
        assert args.registry == "reg"
        assert args.mode == "shadow"
        assert args.fraction == 0.25
        assert args.run_dir == "run1"
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
    """exp1 --run-dir plus the one reader, ``repro obs DIR``."""

    def test_exp1_trace_then_summarize_and_tail(self, capsys, tmp_path):
        run_dir = tmp_path / "run"
        trace = run_dir / "trace.jsonl"
        assert main(
            ["exp1", "--scale", "test", "--run-dir", str(run_dir)]
        ) == 0
        out = capsys.readouterr().out
        assert out.endswith(f"run directory written to {run_dir}\n")
        assert trace.exists()

        assert main(["obs", str(run_dir)]) == 0
        out = capsys.readouterr().out
        # The trace must cover engine, platform, scheduler, cache,
        # and sampler instrumentation.
        summary = out[out.index("trace summary:"):out.index("last 20")]
        assert "engine.online_pass" in summary
        assert "platform.proactive_training" in summary
        assert "scheduler.decision" in summary
        assert "cache.hits" in summary
        assert "sampler.chunk_age" in summary
        tail = out[out.index("last 20 events:\n"):].splitlines()[1:]
        assert len(tail) == 20
        assert out.startswith(
            "replay: python -m repro exp1 --scale test --run-dir "
        )

    def test_obs_summary_missing_file_raises(self, tmp_path):
        from repro.exceptions import ValidationError

        (tmp_path / "run.json").write_text(
            json.dumps({"argv": ["exp1"], "git_sha": None})
        )
        with pytest.raises(ValidationError, match="trace.jsonl"):
            main(["obs", str(tmp_path)])

    def test_directory_without_run_json_exits_one_line(self, tmp_path):
        with pytest.raises(SystemExit, match="run.json") as error:
            main(["obs", str(tmp_path)])
        assert str(tmp_path) in str(error.value.code)
        assert "\n" not in str(error.value.code)

    def test_obs_health_prints_timeline_then_rules(self, capsys, tmp_path):
        run_dir = tmp_path / "run"
        assert main(
            ["exp1", "--scale", "test", "--run-dir", str(run_dir)]
        ) == 0
        capsys.readouterr()
        assert main(["obs", str(run_dir)]) == 0
        out = capsys.readouterr().out
        timeline = out.index("\n\nhealth timeline (schema 1")
        assert timeline < out.index("\n\nalert rules (")
        # A trace is not a health payload: one line, no traceback.
        (run_dir / "health.json").write_bytes(
            (run_dir / "trace.jsonl").read_bytes()
        )
        with pytest.raises(SystemExit, match="health.json") as error:
            main(["obs", str(run_dir)])
        assert "\n" not in str(error.value.code)

    def test_crashed_run_dir_renders_what_it_has(self, tmp_path):
        """A SIGKILLed run leaves run.json and the trace: the report
        prints those sections and names the other two absent."""
        import os
        import subprocess
        import sys

        import repro

        run_dir = tmp_path / "run"
        env = {
            **os.environ,
            "PYTHONPATH": str(Path(repro.__file__).parents[1]),
        }
        crashed = subprocess.run(
            [sys.executable, "-m", "repro", "run", "--scale", "test",
             "--sigkill-at", "12", "--run-dir", str(run_dir)],
            env=env, capture_output=True, timeout=120,
        )
        assert crashed.returncode == -9
        assert sorted(p.name for p in run_dir.iterdir()) == [
            "run.json", "trace.jsonl",
        ]
        report = subprocess.run(
            [sys.executable, "-m", "repro", "obs", str(run_dir)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert report.returncode == 0, report.stderr
        out = report.stdout
        assert out.startswith(
            "replay: python -m repro run --scale test --sigkill-at 12 "
            f"--run-dir {run_dir}\n"
        )
        assert "\n\nhealth: absent\n\nlineage: absent\n\n" in out
        assert "cost by layer:" in out
        assert "    engine.train_full" in out
        assert "profile digest: " in out
        tail = out[out.index("last 20 events:\n"):].splitlines()[1:]
        assert len(tail) == 20


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
        """Like every instrumented command, ``serve --run-dir`` closes
        its trace with the final counters (it used to write none, so
        the report's trace summary had no metrics to show)."""
        from repro.obs import load_jsonl

        run_dir = tmp_path / "run"
        trace = run_dir / "trace.jsonl"
        assert main(
            ["serve", "--dataset", "url", "--scale", "test",
             "--run-dir", str(run_dir)]
        ) == 0
        assert f"run directory written to {run_dir}" in (
            capsys.readouterr().out
        )
        # The monitor closes its last window at close(), after the
        # snapshot, so only its alert points may follow it.
        last = [
            event for event in load_jsonl(trace)
            if not event["name"].startswith("alert.")
        ][-1]
        assert last["kind"] == "metrics"
        assert last["attrs"]["counters"]["serving.batches"] > 0
        assert main(["obs", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "serving.batches" in out[out.index("trace summary:"):]

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

    def test_fleet_rejects_single_pipeline_faults(self, tmp_path):
        for argv in (
            ["run", "--kill-at", "3"],
            ["run", "--retry"],
            ["recover", "--checkpoint-dir", str(tmp_path), "--retry"],
        ):
            with pytest.raises(SystemExit, match="--sigkill-at"):
                main([*argv, "--approach", "fleet"])

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
    @pytest.mark.parametrize(
        "argv",
        [
            ["perf", "record"],
            ["perf", "check"],
            ["perf", "report"],
            ["perf", "profile", "--store", "./b"],
            ["exp8", "--bench-store", "./b"],
        ],
    )
    def test_store_is_not_a_cli_concern(self, argv):
        # The baseline store is written and gated by the bench suite's
        # bench_record fixture alone.
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    def test_profile_option_on_experiments(self):
        # A run's profile is folded from the trace in its --run-dir,
        # which every instrumentable command accepts.
        for argv in RUN_DIR_ARGV.values():
            args = build_parser().parse_args([*argv, "--run-dir", "d"])
            assert args.run_dir == "d"
            assert build_parser().parse_args(argv).run_dir is None


class TestPerfCommands:
    """Cost by layer: the profile section of ``repro obs DIR``."""

    def test_profile_prints_tree_and_digest(self, capsys, tmp_path):
        # The CLI reference workload: its digest is the one
        # benchmarks/bench_trajectories.py records.
        run_dir = tmp_path / "run"
        assert main(
            ["run", "--approach", "continuous", "--dataset", "url",
             "--scale", "test", "--run-dir", str(run_dir)]
        ) == 0
        capsys.readouterr()
        assert main(["obs", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "\n    platform.observe " in out
        assert "self cost by subsystem:" in out
        assert (
            "profile digest: fe639e9cc0e51926f025bb7d61be9ee6e4e00657"
            "7f926a9610c9063d0a7005ca\n"
        ) in out

    def test_profile_folds_existing_trace(self, capsys, tmp_path):
        run_dir = tmp_path / "run"
        assert main(
            ["exp1", "--scale", "test", "--run-dir", str(run_dir)]
        ) == 0
        capsys.readouterr()
        assert main(["obs", str(run_dir)]) == 0
        out = capsys.readouterr().out
        profile = out[out.index("cost by layer:"):out.index("trace summary:")]
        assert "engine.online_pass" in profile
        assert "profile digest:" in profile

    def test_profile_of_a_run_dir_covers_every_event(
        self, capsys, tmp_path, monkeypatch
    ):
        """The profile is folded from the trace, which holds every
        event, not from the in-memory ring: with the ring cut to 64
        events, fig7's profile still attributes every cost unit its
        13 deployments spent (12 cells plus NoOptimization)."""
        import repro.experiments.exp3_materialization as exp3
        from repro.obs import Telemetry, profile_trace, subsystem_totals

        monkeypatch.setattr(
            Telemetry.__init__, "__defaults__", (None, 64, True)
        )
        returned = []
        for name in ("figure7", "figure7_no_optimization"):
            def recording(*args, _original=getattr(exp3, name), **kw):
                value = _original(*args, **kw)
                returned.append(value)
                return value

            monkeypatch.setattr(exp3, name, recording)
        run_dir = tmp_path / "run"
        assert main(
            ["fig7", "--scale", "test", "--run-dir", str(run_dir)]
        ) == 0
        costs, no_optimization = returned
        assert len(costs) == 12
        out = capsys.readouterr().out
        assert f"NoOptimization: {no_optimization:.3f}" in out
        subsystems = subsystem_totals(
            profile_trace(run_dir / "trace.jsonl")
        )
        assert sum(
            entry["self_cost"] for entry in subsystems.values()
        ) == pytest.approx(
            sum(costs.values()) + no_optimization, rel=1e-9
        )


class TestLineageCli:
    def test_lineage_flag_parsed(self):
        # A run's lineage.json is written into its --run-dir; the
        # per-artifact --lineage flag is gone.
        for command in ("exp1", "exp5", "run", "recover"):
            argv = RUN_DIR_ARGV[command]
            args = build_parser().parse_args([*argv, "--run-dir", "d"])
            assert args.run_dir == "d"
            assert not hasattr(args, "lineage")
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    [*argv, "--lineage", "lineage.json"]
                )

    def test_obs_lineage_options(self):
        args = build_parser().parse_args(
            ["obs", "run1", "--version", "v0002", "--chunk", "chunk:3"]
        )
        assert args.run_dir == "run1"
        assert args.lineage_version == "v0002"
        assert args.lineage_chunk == "chunk:3"

    def test_exp5_export_then_query(self, capsys, tmp_path):
        run_dir = tmp_path / "run"
        assert main(
            ["exp5", "--scale", "test", "--run-dir", str(run_dir)]
        ) == 0
        capsys.readouterr()
        assert (run_dir / "lineage.json").exists()

        assert main(["obs", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "\n\nprovenance ledger\n" in out
        assert "live[gated]" in out
        assert "blame " not in out
        assert "\n\ntrace chunk:" not in out

        assert main(
            ["obs", str(run_dir), "--version", "model:blind:v0002",
             "--chunk", "chunk:0"]
        ) == 0
        out = capsys.readouterr().out
        blame = out[out.index("blame model:blind:v0002"):]
        assert "\n    chunk:" in blame
        assert "models:" in out[out.index("\n\ntrace chunk:0 "):]

    def test_unknown_version_or_chunk_raises_the_ledger_error(
        self, tmp_path
    ):
        from repro.exceptions import ValidationError
        from repro.obs import LineageLedger

        (tmp_path / "run.json").write_text(
            json.dumps({"argv": ["exp1"], "git_sha": None})
        )
        (tmp_path / "trace.jsonl").write_text("")
        LineageLedger().write(tmp_path / "lineage.json")
        with pytest.raises(ValidationError, match="v0009"):
            main(["obs", str(tmp_path), "--version", "v0009"])
        with pytest.raises(ValidationError, match="chunk:7"):
            main(["obs", str(tmp_path), "--chunk", "chunk:7"])

    def test_exp5_report_diagnoses_the_rollback(self, capsys, tmp_path):
        """An injected quality regression, read from the report: exp5's
        gated registry rolls back a corrupted candidate. The health
        timeline names the rollback incident and its virtual time, and
        ``--version`` of the rolled-back candidate names it with the
        chunks that trained it."""
        run_dir = tmp_path / "run"
        assert main(
            ["exp5", "--scale", "test", "--run-dir", str(run_dir)]
        ) == 0
        capsys.readouterr()
        health = json.loads((run_dir / "health.json").read_text())
        (incident,) = [
            incident for incident in health["incidents"]
            if incident["rule"] == "rollout-rolled-back"
        ]
        (rollback,) = incident["evidence"]
        version = f"model:gated:{rollback['attrs']['failed']}"

        assert main(["obs", str(run_dir), "--version", version]) == 0
        out = capsys.readouterr().out
        row = [
            line for line in out.splitlines()
            if " rollout-rolled-back " in line and " firing " in line
        ]
        assert len(row) == 1
        assert f" {incident['fired_at']:.4f} " in row[0]
        blame = out[out.index(f"\n\nblame {version}\n"):]
        assert "contributing chunks (" in blame
        assert "\n    chunk:" in blame

    def test_run_with_lineage_and_checkpoints(self, capsys, tmp_path):
        run_dir = tmp_path / "run"
        assert main(
            ["run", "--approach", "continuous", "--scale", "test",
             "--checkpoint-dir", str(tmp_path / "ckpt"),
             "--cadence", "3", "--run-dir", str(run_dir)]
        ) == 0
        capsys.readouterr()
        assert main(["obs", str(run_dir)]) == 0
        assert "\n\nprovenance ledger\n" in capsys.readouterr().out


#: The eleven commands ``--run-dir`` instruments, at their smallest
#: scale, and ``run`` once more for a fleet. ``{tmp}`` is the test's scratch directory: ``serve`` gets a
#: fresh registry there on every invocation, and ``recover`` a fresh
#: copy of one crashed run's checkpoints.
RUN_DIR_ARGV = {
    "exp1": ["exp1", "--scale", "test"],
    "fig5": ["fig5", "--scale", "test"],
    "fig6": ["fig6", "--scale", "test"],
    "fig7": ["fig7", "--scale", "test"],
    "fig8": ["fig8", "--scale", "test"],
    "exp5": ["exp5", "--scale", "test"],
    "exp6": ["exp6", "--scale", "test"],
    "serve": ["serve", "--scale", "test", "--registry", "{tmp}/registry"],
    "run": ["run", "--scale", "test"],
    "recover": ["recover", "--scale", "test", "--cadence", "4",
                "--checkpoint-dir", "{tmp}/ckpt"],
    "fleet": ["run", "--approach", "fleet", "--tenants", "4",
              "--chunks", "6"],
    "exp8": ["exp8", "--tenants", "4", "--chunks", "6"],
}

ARTIFACTS = ["health.json", "lineage.json", "run.json", "trace.jsonl"]


def _events(trace):
    from repro.obs import load_jsonl

    return [
        {key: value for key, value in event.items() if key != "wall_s"}
        for event in load_jsonl(trace)
    ]


class TestRunDir:
    """One ``--run-dir`` per instrumentable command: the same stdout
    plus one line, and the same four files from the same seed."""

    @staticmethod
    def _invoke(command, tmp_path, capsys, run_dir=None):
        """Run ``command`` from a clean slate; returns its stdout.

        The run directory and any registry or checkpoints keep one
        path throughout, because events carry the paths they wrote.
        """
        argv = [
            arg.replace("{tmp}", str(tmp_path))
            for arg in RUN_DIR_ARGV[command]
        ]
        shutil.rmtree(tmp_path / "registry", ignore_errors=True)
        if command == "recover":
            shutil.rmtree(tmp_path / "ckpt", ignore_errors=True)
            shutil.copytree(tmp_path / "crashed", tmp_path / "ckpt")
        if run_dir is not None:
            argv += ["--run-dir", str(run_dir)]
        capsys.readouterr()
        assert main(argv) == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize("command", list(RUN_DIR_ARGV))
    def test_run_dir_records_the_run(self, command, tmp_path, capsys):
        if command == "recover":
            with pytest.raises(SystemExit):
                main(["run", "--scale", "test", "--cadence", "4",
                      "--checkpoint-dir", str(tmp_path / "crashed"),
                      "--kill-at", "9"])
        plain = self._invoke(command, tmp_path, capsys)
        run_dir = tmp_path / "run"
        first = self._invoke(command, tmp_path, capsys, run_dir)
        assert sorted(p.name for p in run_dir.iterdir()) == ARTIFACTS
        assert first == plain + f"run directory written to {run_dir}\n"

        earlier = tmp_path / "earlier"
        run_dir.rename(earlier)
        assert self._invoke(command, tmp_path, capsys, run_dir) == first
        for name in ("health.json", "lineage.json"):
            assert (run_dir / name).read_bytes() == (
                earlier / name
            ).read_bytes(), name
        assert _events(run_dir / "trace.jsonl") == _events(
            earlier / "trace.jsonl"
        )

    @pytest.mark.parametrize("command", ["exp1", "run"])
    def test_run_json_replays_the_run(self, command, tmp_path, capsys):
        first = tmp_path / "first"
        self._invoke(command, tmp_path, capsys, first)
        record = json.loads((first / "run.json").read_text())
        assert sorted(record) == ["argv", "git_sha"]
        argv = record["argv"]
        second = tmp_path / "second"
        argv[argv.index("--run-dir") + 1] = str(second)
        assert main(argv) == 0
        for name in ("health.json", "lineage.json"):
            assert (first / name).read_bytes() == (
                second / name
            ).read_bytes(), name

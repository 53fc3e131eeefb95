"""Command-line interface for the experiment drivers.

Regenerate any paper artifact from a shell::

    python -m repro exp1   --dataset url  --scale test
    python -m repro table3 --dataset taxi --scale test
    python -m repro fig6   --dataset url  --scale bench
    python -m repro table4 --chunks 12000 --sample-size 100
    python -m repro fig7   --dataset taxi --scale test
    python -m repro fig8   --dataset url  --scale test

``--scale test`` runs a seconds-long miniature; ``--scale bench`` the
scale EXPERIMENTS.md records (minutes). Output is the same row/series
rendering the benchmark suite prints.

Observability: ``--run-dir DIR`` on any command that runs a
deployment (``exp1 fig5 fig6 fig7 fig8 exp5 exp7 exp6 serve run
recover exp8``) instruments the run and writes its record under
``DIR``: ``run.json`` (argv, git sha), ``trace.jsonl`` (every event),
``health.json`` (the monitor's incident timeline) and ``lineage.json``
(the provenance ledger). ``repro obs DIR`` reads them back as one
report: replay line, health, lineage, cost by layer, trace summary
and the last events::

    python -m repro exp1 --dataset url --scale test --run-dir run1
    python -m repro obs run1
    python -m repro obs run1 --version v0002 --chunk chunk:0

Serving: ``repro serve`` runs a full train-register-canary-serve loop
against a model registry directory, and ``repro registry`` inspects
and operates one offline::

    python -m repro serve --registry ./reg --dataset url --scale test
    python -m repro registry list --registry ./reg
    python -m repro registry show v0002 --registry ./reg
    python -m repro registry promote v0002 --registry ./reg
    python -m repro registry rollback --registry ./reg
    python -m repro exp5 --dataset taxi --scale test

Reliability: ``repro run`` executes any approach with platform
checkpointing (and optional deterministic fault injection), ``repro
recover`` resumes an interrupted run byte-identically, and ``repro
exp6`` measures checkpoint cadence vs recovery cost::

    python -m repro run --approach continuous --checkpoint-dir ./ckpt \
        --cadence 5 --kill-at 12 --dataset url --scale test
    python -m repro recover --approach continuous \
        --checkpoint-dir ./ckpt --dataset url --scale test
    python -m repro exp6 --dataset url --scale test

Fleet: ``repro run --approach fleet`` orchestrates many tenant
pipelines against shared bounded budgets (deterministic fair-share
scheduling, byte quotas, nested fleet checkpoints; ``--cadence`` and
``--sigkill-at`` count epochs), and ``repro exp8`` compares
fair-share vs round-robin at an equal total training budget, running
each policy twice to check byte-identical schedule and telemetry
digests::

    python -m repro run --approach fleet --tenants 6 --chunks 10 \
        --checkpoint-dir ./fc --cadence 2 --sigkill-at 5
    python -m repro recover --approach fleet --checkpoint-dir ./fc
    python -m repro exp8 --tenants 24 --seed 11

Static analysis: ``repro lint``, run from the repository root, runs
reprolint's two checks over ``src/``: the subsystem layering (REP012)
and the telemetry vocabulary (REP014). It takes no options and exits
0 when clean, 1 on findings, 2 when there is no ``src/``::

    python -m repro lint
"""

from __future__ import annotations

import argparse
import sys
import warnings
from typing import List, Optional

from repro.evaluation.report import (
    format_comparison_table,
    format_series,
    summarize_results,
)
from repro.exceptions import ConvergenceWarning
from repro.experiments.common import (
    APPROACHES,
    Scenario,
    taxi_scenario,
    url_scenario,
)


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce the evaluation of 'Continuous Deployment of "
            "Machine Learning Pipelines' (EDBT 2019)."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_seed_option(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--seed", type=int, default=None,
            help="override the scenario seed (a fleet's defaults to 0 "
            "for 'run', 11 for 'exp8')",
        )

    def add_scenario_options(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--dataset",
            choices=("url", "taxi"),
            default="url",
            help="deployment scenario (default: url)",
        )
        sub.add_argument(
            "--scale",
            choices=("test", "bench"),
            default="test",
            help="test = seconds-long miniature; bench = the "
            "EXPERIMENTS.md scale (default: test)",
        )
        add_seed_option(sub)

    def add_fleet_options(
        sub: argparse.ArgumentParser, tenants: int
    ) -> None:
        sub.add_argument(
            "--tenants", type=int, default=tenants,
            help=f"fleet size (default: {tenants})",
        )
        sub.add_argument(
            "--chunks", type=int, default=16,
            help="stream chunks per tenant (default: 16)",
        )
        sub.add_argument(
            "--rows", type=int, default=12,
            help="rows per stream chunk (default: 12)",
        )

    def add_run_dir_option(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--run-dir",
            metavar="DIR",
            default=None,
            help="instrument the run and write its record under DIR: "
            "run.json (argv, git sha), trace.jsonl, health.json and "
            "lineage.json. Read them back with 'repro obs DIR', "
            "whose summary and cost by layer come from the trace, "
            "which holds every event",
        )

    exp1 = commands.add_parser(
        "exp1", help="Figure 4: online vs periodical vs continuous"
    )
    add_scenario_options(exp1)
    add_run_dir_option(exp1)

    table3 = commands.add_parser(
        "table3", help="Table 3: hyperparameter grid"
    )
    add_scenario_options(table3)

    fig5 = commands.add_parser(
        "fig5", help="Figure 5: best configs deployed on a prefix"
    )
    add_scenario_options(fig5)
    add_run_dir_option(fig5)

    fig6 = commands.add_parser(
        "fig6", help="Figure 6: sampling strategies vs quality"
    )
    add_scenario_options(fig6)
    add_run_dir_option(fig6)

    table4 = commands.add_parser(
        "table4", help="Table 4: empirical vs analytical μ"
    )
    table4.add_argument("--chunks", type=int, default=12_000)
    table4.add_argument("--sample-size", type=int, default=100)
    table4.add_argument(
        "--sample-every", type=int, default=8,
        help="thin the simulation (1 = the paper's every-chunk mode)",
    )

    fig7 = commands.add_parser(
        "fig7", help="Figure 7: cost vs materialization rate"
    )
    add_scenario_options(fig7)
    add_run_dir_option(fig7)

    fig8 = commands.add_parser(
        "fig8", help="Figure 8: quality/cost trade-off"
    )
    add_scenario_options(fig8)
    add_run_dir_option(fig8)

    obs = commands.add_parser(
        "obs",
        help="read back a run directory: one report of its replay "
        "line, health, lineage, cost by layer, trace summary and last "
        "events",
    )
    obs.add_argument(
        "run_dir",
        metavar="DIR",
        help="a directory a --run-dir run wrote",
    )
    obs.add_argument(
        "--version",
        default=None,
        dest="lineage_version",
        metavar="VERSION",
        help="also list the training chunks behind this model version "
        "(full node id 'model:<registry>:vNNNN' or any unique suffix, "
        "e.g. v0003)",
    )
    obs.add_argument(
        "--chunk",
        default=None,
        dest="lineage_chunk",
        metavar="CHUNK",
        help="also follow this chunk downstream to every training, "
        "model and incident (full node id 'chunk:<timestamp>' or any "
        "unique suffix)",
    )

    exp5 = commands.add_parser(
        "exp5", help="gated canary rollout vs blind promotion"
    )
    add_scenario_options(exp5)
    add_run_dir_option(exp5)

    exp7 = commands.add_parser(
        "exp7",
        help="canary + shadow rollout under an open-loop traffic "
        "spike: micro-batching, load shedding, SLO alerts, plus "
        "batched-vs-row-at-a-time and replay identity checks",
    )
    add_scenario_options(exp7)
    add_run_dir_option(exp7)

    serve = commands.add_parser(
        "serve",
        help="run a continuous deployment with a model registry and "
        "gated canary rollouts",
    )
    add_scenario_options(serve)
    serve.add_argument(
        "--registry",
        metavar="DIR",
        default=None,
        help="registry directory (default: a temporary one); an "
        "existing registry with a live version is reused, an empty "
        "one is bootstrapped from the scenario's initial data",
    )
    serve.add_argument(
        "--mode",
        choices=("shadow", "canary"),
        default="canary",
        help="staging mode for fresh candidates (default: canary)",
    )
    serve.add_argument(
        "--fraction", type=float, default=0.2,
        help="canary traffic fraction (default: 0.2)",
    )
    add_run_dir_option(serve)

    registry = commands.add_parser(
        "registry", help="inspect or operate a model registry"
    )
    registry.add_argument(
        "action",
        choices=("list", "show", "promote", "rollback", "gc"),
        help="list = one line per version; show = full detail for "
        "VERSION; promote = VERSION goes live; rollback = reinstate "
        "the previous live version; gc = drop finished bundles",
    )
    registry.add_argument(
        "version",
        nargs="?",
        default=None,
        help="version id (required by show/promote)",
    )
    registry.add_argument(
        "--registry",
        metavar="DIR",
        required=True,
        dest="registry_dir",
        help="registry directory",
    )
    registry.add_argument(
        "--keep", type=int, default=3,
        help="finished versions whose bundles 'gc' keeps (default: 3)",
    )
    registry.add_argument(
        "--reason", default="cli",
        help="reason recorded with promote/rollback (default: cli)",
    )

    run = commands.add_parser(
        "run",
        help="run one deployment approach or a whole fleet, "
        "optionally writing checkpoints (crash-recoverable with "
        "'repro recover')",
    )
    add_scenario_options(run)
    _add_reliability_options(run)
    add_fleet_options(run, tenants=6)
    add_run_dir_option(run)
    run.add_argument(
        "--kill-at",
        type=int,
        default=None,
        metavar="K",
        help="inject a deterministic crash after K chunks (exercises "
        "the recovery path)",
    )
    run.add_argument(
        "--sigkill-at",
        type=int,
        default=None,
        metavar="K",
        help="send this process a real SIGKILL before chunk K is "
        "read, or before epoch K runs for a fleet (the CI recovery "
        "smokes; no cleanup runs)",
    )

    recover = commands.add_parser(
        "recover",
        help="resume an interrupted 'repro run' from its latest "
        "valid checkpoint",
    )
    add_scenario_options(recover)
    _add_reliability_options(recover)
    add_run_dir_option(recover)

    exp8 = commands.add_parser(
        "exp8",
        help="multi-tenant fleet: fair-share vs round-robin "
        "scheduling at an equal total training budget, plus "
        "byte-identity verification",
    )
    add_seed_option(exp8)
    add_fleet_options(exp8, tenants=24)
    add_run_dir_option(exp8)

    commands.add_parser(
        "lint",
        help="run reprolint's two checks over ./src (exit 0 clean / "
        "1 findings / 2 no src/)",
    )

    exp6 = commands.add_parser(
        "exp6",
        help="checkpoint cadence vs recovery cost + retry masking "
        "transient faults",
    )
    add_scenario_options(exp6)
    exp6.add_argument(
        "--approach",
        choices=APPROACHES,
        default="continuous",
        help="deployment approach under test (default: continuous)",
    )
    exp6.add_argument(
        "--kill-after",
        type=int,
        default=19,
        metavar="K",
        help="chunks processed before the injected crash "
        "(default: 19)",
    )
    exp6.add_argument(
        "--cadences",
        type=int,
        nargs="+",
        default=None,
        metavar="N",
        help="checkpoint intervals to sweep (default: 4 7 13)",
    )
    add_run_dir_option(exp6)

    return parser


def _add_reliability_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--approach",
        choices=APPROACHES + ("fleet",),
        default="continuous",
        help="deployment approach (default: continuous); 'fleet' runs "
        "a generated mixed URL/taxi fleet (--tenants/--chunks/--rows/"
        "--seed), or resumes a whole fleet checkpoint",
    )
    sub.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help="write platform checkpoints under DIR (required by "
        "'repro recover')",
    )
    sub.add_argument(
        "--cadence",
        type=int,
        default=10,
        help="checkpoint every N chunks, epochs for a fleet "
        "(default: 10)",
    )
    sub.add_argument(
        "--keep",
        type=int,
        default=3,
        help="checkpoints retained (default: 3)",
    )
    sub.add_argument(
        "--retry",
        action="store_true",
        help="mask transient faults with bounded-backoff retries",
    )


def _scenario(args: argparse.Namespace) -> Scenario:
    builder = url_scenario if args.dataset == "url" else taxi_scenario
    if args.seed is not None:
        return builder(args.scale, seed=args.seed)
    return builder(args.scale)


def _attach(args: argparse.Namespace, rules=None):
    """Open the run directory ``--run-dir`` names and instrument the
    run into it; ``None`` without the flag, so a plain invocation
    builds no telemetry at all.

    ``run.json`` (argv, git sha) is written before the run starts, so
    a run that crashes still names itself. Every event goes to
    ``trace.jsonl`` as it happens. The ledger is attached before the
    monitor so incidents can carry lineage evidence; ``rules``
    overrides the monitor's default rule set (exp7's traffic rules,
    the fleet's own).
    """
    if args.run_dir is None:
        return None
    import json
    from pathlib import Path

    from repro.obs import JsonlSink, Telemetry, current_git_sha

    run_dir = Path(args.run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    record = {
        "argv": args.argv,
        "git_sha": current_git_sha(Path(__file__).resolve().parent),
    }
    (run_dir / "run.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    telemetry = Telemetry(sink=JsonlSink(run_dir / "trace.jsonl"))
    telemetry.attach_ledger()
    telemetry.attach_monitor(rules=rules)
    return telemetry


def _finish(args: argparse.Namespace, telemetry) -> None:
    """Close the run directory :func:`_attach` opened.

    ``lineage.json`` is written while the trace is still open, so its
    export point lands in it; then the final metrics snapshot, and
    ``health.json`` once the chain is closed. Renderings are left to
    the reader, ``repro obs DIR``.
    """
    if telemetry is None:
        return
    from pathlib import Path

    from repro.obs import names

    run_dir = Path(args.run_dir)
    health = run_dir / "health.json"
    telemetry.tracer.point(names.HEALTH_EXPORTED, path=str(health))
    telemetry.ledger.write(run_dir / "lineage.json")
    telemetry.flush_metrics()
    telemetry.close()
    telemetry.monitor.write_health(health)
    print(f"run directory written to {run_dir}")


def _command_exp1(args: argparse.Namespace) -> None:
    from repro.experiments.exp1_deployment import (
        cost_ratios,
        run_experiment1,
    )

    telemetry = _attach(args)
    results = run_experiment1(_scenario(args), telemetry=telemetry)
    print("cumulative error over time:")
    for name, result in results.items():
        print(format_series(name, result.error_history, points=12))
    print("\ncumulative cost over time:")
    for name, result in results.items():
        print(
            format_series(
                name, result.cost_history, points=12,
                float_format="{:.2f}",
            )
        )
    print()
    print(
        format_comparison_table(
            summarize_results(results),
            columns=[
                "approach", "final_error", "average_error",
                "total_cost",
            ],
        )
    )
    ratios = cost_ratios(results)
    print(
        "\nfinal-cost ratio vs continuous: "
        + ", ".join(f"{k}={v:.2f}x" for k, v in sorted(ratios.items()))
    )
    _finish(args, telemetry)


def _command_obs(args: argparse.Namespace) -> None:
    """``repro obs DIR``: one report of whatever of ``run.json``,
    ``trace.jsonl``, ``health.json`` and ``lineage.json`` the run
    directory holds; a crashed run has no health or lineage."""
    import json
    import shlex
    from pathlib import Path

    from repro.obs import (
        build_profile,
        format_alerts,
        format_blame,
        format_lineage,
        format_profile,
        format_summary,
        format_tail,
        format_timeline,
        format_trace,
        load_jsonl,
        load_lineage,
        summarize_events,
    )

    run_dir = Path(args.run_dir)
    if not (run_dir / "run.json").is_file():
        raise SystemExit(
            f"{run_dir} is not a run directory: it has no run.json"
        )
    record = json.loads((run_dir / "run.json").read_text(encoding="utf-8"))
    events = load_jsonl(run_dir / "trace.jsonl")
    sections = [
        f"replay: python -m repro {shlex.join(record['argv'])}\n"
        f"git sha: {record['git_sha']}"
    ]
    health = run_dir / "health.json"
    if health.is_file():
        try:
            payload = json.loads(health.read_text(encoding="utf-8"))
        except ValueError:
            payload = None
        if not (isinstance(payload, dict) and "incidents" in payload):
            raise SystemExit(
                f"repro obs reads a run directory's health.json; "
                f"{health} is not one"
            )
        sections += [format_timeline(payload), format_alerts(payload)]
    else:
        sections.append("health: absent")
    lineage = run_dir / "lineage.json"
    if lineage.is_file():
        ledger = load_lineage(lineage)
        sections.append(format_lineage(ledger))
        if args.lineage_version is not None:
            sections.append(format_blame(ledger.blame(args.lineage_version)))
        if args.lineage_chunk is not None:
            sections.append(format_trace(ledger.trace(args.lineage_chunk)))
    else:
        sections.append("lineage: absent")
    sections += [
        "cost by layer:\n" + format_profile(build_profile(events)),
        "trace summary:\n" + format_summary(summarize_events(events)),
        "last 20 events:\n" + format_tail(events, limit=20),
    ]
    print("\n\n".join(sections))


def _command_table3(args: argparse.Namespace) -> None:
    from repro.experiments.exp2_tuning import (
        ADAPTATIONS,
        REG_STRENGTHS,
        best_per_adaptation,
        table3,
    )

    grid = table3(_scenario(args))
    print(
        "adaptation  "
        + "  ".join(f"{s:g}" for s in REG_STRENGTHS)
    )
    for adaptation in ADAPTATIONS:
        row = "  ".join(
            f"{grid[(adaptation, s)]:.4f}" for s in REG_STRENGTHS
        )
        print(f"{adaptation:<10}  {row}")
    best = best_per_adaptation(grid)
    print(
        "best: "
        + ", ".join(f"{k}={v:g}" for k, v in sorted(best.items()))
    )


def _command_fig5(args: argparse.Namespace) -> None:
    from repro.experiments.exp2_tuning import (
        best_per_adaptation,
        figure5,
        ranking_agreement,
        table3,
    )

    scenario = _scenario(args)
    grid = table3(scenario)
    best = best_per_adaptation(grid)
    telemetry = _attach(args)
    histories = figure5(scenario, best, telemetry=telemetry)
    for adaptation, history in histories.items():
        print(format_series(adaptation, history, points=12))
    print(
        "initial-training winner also wins deployment: "
        f"{ranking_agreement(grid, histories)}"
    )
    _finish(args, telemetry)


def _command_fig6(args: argparse.Namespace) -> None:
    from repro.experiments.exp2_sampling import (
        average_errors,
        run_sampling_experiment,
    )

    telemetry = _attach(args)
    results = run_sampling_experiment(
        _scenario(args), telemetry=telemetry
    )
    for name, result in results.items():
        print(format_series(name, result.error_history, points=12))
    averages = average_errors(results)
    print(
        "average error: "
        + ", ".join(
            f"{k}={v:.4f}" for k, v in sorted(averages.items())
        )
    )
    _finish(args, telemetry)


def _command_table4(args: argparse.Namespace) -> None:
    from repro.experiments.exp3_materialization import table4

    cells = table4(
        num_chunks=args.chunks,
        sample_size=args.sample_size,
        sample_every=args.sample_every,
    )
    print(f"{'sampler':<10} {'m/n':>5} {'empirical':>10} {'theory':>8}")
    for cell in cells:
        theory = (
            f"{cell.theoretical:8.3f}"
            if cell.theoretical is not None
            else "      --"
        )
        print(
            f"{cell.sampler:<10} {cell.rate:>5} "
            f"{cell.empirical:>10.3f} {theory}"
        )


def _command_fig7(args: argparse.Namespace) -> None:
    from repro.experiments.exp3_materialization import (
        FIG7_RATES,
        SAMPLERS,
        figure7,
        figure7_no_optimization,
    )

    scenario = _scenario(args)
    telemetry = _attach(args)
    costs = figure7(scenario, telemetry=telemetry)
    print(
        f"{'sampler':<10} "
        + " ".join(f"m/n={r:<6}" for r in FIG7_RATES)
    )
    for sampler in SAMPLERS:
        row = " ".join(
            f"{costs[(sampler, rate)]:<10.3f}" for rate in FIG7_RATES
        )
        print(f"{sampler:<10} {row}")
    print(
        f"NoOptimization: "
        f"{figure7_no_optimization(scenario, telemetry=telemetry):.3f}"
    )
    _finish(args, telemetry)


def _command_fig8(args: argparse.Namespace) -> None:
    from repro.experiments.exp4_tradeoff import (
        headline_claims,
        run_tradeoff,
    )

    telemetry = _attach(args)
    points = run_tradeoff(_scenario(args), telemetry=telemetry)
    print(f"{'approach':<12} {'avg error':>10} {'total cost':>12}")
    for point in sorted(points, key=lambda p: p.approach):
        print(
            f"{point.approach:<12} {point.average_error:>10.4f} "
            f"{point.total_cost:>12.3f}"
        )
    claims = headline_claims(points)
    print(
        f"cost ratio {claims['cost_ratio']:.2f}x, quality delta "
        f"{claims['quality_delta']:+.4f}"
    )
    _finish(args, telemetry)


def _command_exp5(args: argparse.Namespace) -> None:
    from repro.experiments.exp5_serving import (
        POLICIES,
        headline_claims,
        run_serving_experiment,
    )

    telemetry = _attach(args)
    results = run_serving_experiment(
        _scenario(args), telemetry=telemetry
    )
    print("prequential serving error over time:")
    for policy in POLICIES:
        print(
            format_series(
                policy, results[policy].error_history, points=12
            )
        )
    print(f"\n{'policy':<8} {'avg error':>10} {'final':>8} transitions")
    for policy in POLICIES:
        point = results[policy]
        moves = ", ".join(
            f"{k}={v}" for k, v in sorted(point.transitions.items())
        )
        print(
            f"{policy:<8} {point.average_error:>10.4f} "
            f"{point.final_error:>8.4f} {moves or '-'}"
        )
    claims = headline_claims(results)
    print(
        f"gated vs blind improvement: "
        f"{claims['gated_vs_blind_improvement']:+.4f} "
        f"(promotions={claims['gated_promotions']:.0f}, "
        f"rejections={claims['gated_rejections']:.0f})"
    )
    _finish(args, telemetry)


def _command_exp7(args: argparse.Namespace) -> None:
    from repro.experiments.exp7_traffic import (
        PHASES,
        default_traffic_config,
        headline_claims,
        run_traffic_experiment,
    )

    from repro.traffic.slo import monitor_rules_for_traffic

    scenario = _scenario(args)
    config = default_traffic_config(scenario)
    telemetry = _attach(
        args,
        rules=monitor_rules_for_traffic(
            p99_budget=config.p99_budget,
            shed_per_window=config.shed_per_window,
        ),
    )
    result = run_traffic_experiment(
        scenario,
        config=config,
        telemetry=telemetry,
    )
    print(
        f"{'phase':<10} {'mode':<7} {'arrivals':>8} {'shed':>6} "
        f"{'p99 lat':>9} {'batches':>8} {'mean size':>9}"
    )
    for phase in PHASES:
        outcome = result.phases[phase]
        report = outcome.result.report
        print(
            f"{phase:<10} {outcome.mode:<7} {report.arrivals:>8} "
            f"{report.shed:>6} {report.latency['p99']:>9.4f} "
            f"{report.batches:>8} {report.mean_batch_size:>9.2f}"
        )
    claims = headline_claims(result)
    print(
        f"\nspike vs steady p99 ratio: "
        f"{claims['spike_vs_steady_p99_ratio']:.2f}x, "
        f"shed during spike: {claims['spike_shed']:.0f}, "
        f"training chunks during run: "
        f"{claims['training_chunks_during_run']:.0f}"
    )
    print(
        "batched == row-at-a-time: "
        f"{'yes' if result.bit_identical else 'NO'}; "
        "replay byte-identical: "
        f"{'yes' if result.replay_identical else 'NO'}"
    )
    _finish(args, telemetry)
    if not (result.bit_identical and result.replay_identical):
        return 1


def _command_serve(args: argparse.Namespace) -> None:
    import contextlib
    import tempfile

    from repro.experiments.common import make_platform
    from repro.experiments.exp5_serving import default_gate_config
    from repro.ml.metrics import PrequentialTracker
    from repro.serving import (
        ModelRegistry,
        RolloutController,
        ServingEndpoint,
    )

    scenario = _scenario(args)
    telemetry = _attach(args)

    with contextlib.ExitStack() as stack:
        root = args.registry
        if root is None:
            root = stack.enter_context(tempfile.TemporaryDirectory())
            print(f"using a temporary registry at {root}")
        registry = ModelRegistry(root, telemetry=telemetry)

        if registry.live_version is None:
            print("empty registry: bootstrapping the initial version…")
            platform = make_platform(scenario, telemetry, registry)
            first = registry.register(*platform.manager.artifacts)
            registry.promote(first.version, reason="initial deployment")
        else:
            print(f"resuming: {registry.live_version} is live")
            bundle = registry.load_live()
            platform = make_platform(
                scenario,
                telemetry,
                registry,
                parts=(bundle.pipeline, bundle.model, bundle.optimizer),
            )

        endpoint = ServingEndpoint(
            registry, seed=scenario.seed, telemetry=telemetry
        )
        controller = RolloutController(
            registry,
            endpoint,
            metric=scenario.metric,
            config=default_gate_config(scenario),
            telemetry=telemetry,
        )
        tracker = PrequentialTracker.for_metric(scenario.metric)
        staged = 0
        for chunk_index, table in enumerate(scenario.make_stream()):
            # Prequential: serve the chunk first, then let the
            # platform train on it.
            served = endpoint.predict(table, chunk_index=chunk_index)
            tracker.score(served.predictions, served.labels)
            action = controller.observe(served)
            if action != "continue":
                print(
                    f"  chunk {chunk_index}: {action} "
                    f"(live={registry.live_version})"
                )
            platform.observe(table)
            if (
                platform.registered_versions
                and controller.state in ("idle", "monitoring")
            ):
                latest = platform.registered_versions[-1]
                if latest.status == "candidate":
                    controller.stage(
                        latest.version,
                        mode=args.mode,
                        fraction=args.fraction,
                    )
                    staged += 1
                    print(
                        f"  chunk {chunk_index}: staged "
                        f"{latest.version} as {args.mode}"
                    )

        print()
        print(
            format_series("serving error", tracker.history, points=12)
        )
        print(
            f"\n{'version':<8} {'status':<12} {'parent':<8} "
            f"{'chunks':>6} {'cost':>8}"
        )
        for info in registry.list_versions():
            print(
                f"{info.version:<8} {info.status:<12} "
                f"{info.parent or '-':<8} {info.chunks_observed:>6} "
                f"{info.training_cost:>8.2f}"
            )
        print(
            f"\nlive={registry.live_version}  staged={staged}  "
            + "  ".join(
                f"{action}s="
                + str(
                    sum(
                        1 for entry in controller.log
                        if entry["action"] == action
                    )
                )
                for action in ("promote", "reject", "rollback")
            )
        )
        _finish(args, telemetry)


def _command_registry(args: argparse.Namespace) -> None:
    from repro.serving import ModelRegistry

    from pathlib import Path

    root = Path(args.registry_dir)
    if not (root / "registry.json").exists():
        raise SystemExit(f"no registry manifest under {root}")
    registry = ModelRegistry(root)
    action = args.action
    if action in ("show", "promote") and args.version is None:
        raise SystemExit(f"registry {action} requires a VERSION")
    if action == "list":
        print(
            f"{'version':<8} {'status':<12} {'parent':<8} "
            f"{'chunks':>6} {'cost':>8}  metrics"
        )
        for info in registry.list_versions():
            metrics = ", ".join(
                f"{k}={v:.4g}" for k, v in sorted(info.metrics.items())
            )
            collected = " [gc]" if info.collected else ""
            print(
                f"{info.version:<8} {info.status:<12} "
                f"{info.parent or '-':<8} {info.chunks_observed:>6} "
                f"{info.training_cost:>8.2f}  {metrics or '-'}"
                f"{collected}"
            )
        print(f"live: {registry.live_version or '-'}")
    elif action == "show":
        info = registry.get(args.version)
        for name, value in sorted(info.to_dict().items()):
            print(f"{name:>15}: {value}")
        related = [
            entry for entry in registry.transitions
            if entry.get("version") == args.version
            or entry.get("failed") == args.version
        ]
        for entry in related:
            print(f"{'transition':>15}: {entry}")
    elif action == "promote":
        info = registry.promote(args.version, reason=args.reason)
        print(f"{info.version} is live")
    elif action == "rollback":
        info = registry.rollback(reason=args.reason)
        print(f"rolled back; {info.version} is live")
    else:  # gc
        collected = registry.gc(keep=args.keep)
        print(
            f"collected {len(collected)} bundle(s)"
            + (": " + ", ".join(collected) if collected else "")
        )


def _checkpoint_config(args: argparse.Namespace):
    if args.checkpoint_dir is None:
        return None
    from repro.reliability import CheckpointConfig

    return CheckpointConfig(
        directory=args.checkpoint_dir,
        cadence_chunks=args.cadence,
        keep=args.keep,
    )


def _retry_policy(args: argparse.Namespace, scenario: Scenario):
    if not args.retry:
        return None
    from repro.reliability import RetryPolicy

    return RetryPolicy(seed=scenario.seed)


def _sigkill_stream(stream, kill_before_chunk: int):
    """Yield from ``stream``, SIGKILL-ing this process at the kill
    point — a *real* crash (no cleanup, no atexit) for the recovery
    smoke test."""
    import os
    import signal

    def generate():
        for index, table in enumerate(stream):
            if index == kill_before_chunk:
                os.kill(os.getpid(), signal.SIGKILL)
            yield table

    return generate()


def _print_run_result(result, deployment) -> None:
    print(format_series("error", result.error_history, points=12))
    print(
        format_series(
            "cost", result.cost_history, points=12,
            float_format="{:.2f}",
        )
    )
    counters = ", ".join(
        f"{name}={value}"
        for name, value in sorted(result.counters.items())
    )
    print(
        f"approach={result.approach} chunks={result.chunks_processed} "
        f"final_error={result.final_error:.4f} "
        f"total_cost={result.total_cost:.2f}"
    )
    print(f"counters: {counters or '-'}")
    if result.recovery is not None:
        print(
            f"recovered from checkpoint at chunk "
            f"{result.recovery.cursor}"
        )
    cursor = deployment.reliability.last_checkpoint_cursor
    if cursor is not None:
        print(f"last checkpoint written at chunk {cursor}")


def _command_run(args: argparse.Namespace) -> None:
    from repro.experiments.common import make_deployment
    from repro.reliability import FaultPlan, SimulatedCrash

    if args.approach == "fleet":
        return _run_fleet(args)
    scenario = _scenario(args)
    fault_plan = None
    if args.kill_at is not None:
        # The run fully processes kill_at chunks, then dies pulling
        # the next one.
        from repro.reliability.sites import STREAM_READ

        fault_plan = FaultPlan.crash_at(
            STREAM_READ, args.kill_at + 1
        )
    stream = scenario.make_stream()
    if args.sigkill_at is not None:
        stream = _sigkill_stream(stream, args.sigkill_at)
    telemetry = _attach(args)
    deployment = make_deployment(
        scenario,
        args.approach,
        telemetry=telemetry,
        checkpoint=_checkpoint_config(args),
        fault_plan=fault_plan,
        retry=_retry_policy(args, scenario),
    )
    scenario.fit(deployment)
    try:
        result = deployment.run(stream)
    except SimulatedCrash as crash:
        cursor = deployment.reliability.last_checkpoint_cursor
        print(f"crashed: {crash}")
        print(
            f"last checkpoint at chunk {cursor}; resume with: "
            f"repro recover --approach {args.approach} "
            f"--checkpoint-dir {args.checkpoint_dir} "
            f"--dataset {args.dataset} --scale {args.scale}"
            if cursor is not None
            else "no checkpoint was written; the run is lost"
        )
        # No health export on the crash path — the monitor state rides
        # in the checkpoint and 'repro recover --run-dir' finishes the
        # timeline; just flush the trace file.
        if telemetry is not None:
            telemetry.close()
        raise SystemExit(17) from None
    _print_run_result(result, deployment)
    _finish(args, telemetry)


def _command_recover(args: argparse.Namespace) -> None:
    from repro.experiments.common import make_deployment

    if args.checkpoint_dir is None:
        raise SystemExit("recover requires --checkpoint-dir")
    if args.approach == "fleet":
        return _recover_fleet(args)
    scenario = _scenario(args)
    telemetry = _attach(args)
    deployment = make_deployment(
        scenario,
        args.approach,
        telemetry=telemetry,
        checkpoint=_checkpoint_config(args),
        retry=_retry_policy(args, scenario),
    )
    # No initial_fit: all fitted state comes from the checkpoint.
    result = deployment.recover(scenario.make_stream())
    _print_run_result(result, deployment)
    _finish(args, telemetry)


def _refuse_single_pipeline_faults(args: argparse.Namespace) -> None:
    """A fleet takes neither ``--kill-at`` (``run`` only) nor
    ``--retry``: both drive one pipeline's deployment."""
    if getattr(args, "kill_at", None) is not None or args.retry:
        raise SystemExit(
            "--kill-at and --retry drive one pipeline; crash a fleet "
            "with --sigkill-at"
        )


def _run_fleet(args: argparse.Namespace) -> None:
    """``repro run --approach fleet``: a generated mixed fleet,
    checkpointed every ``--cadence`` epochs; ``--sigkill-at K`` kills
    it before epoch K."""
    from repro.fleet import FleetOrchestrator, fleet_rules, make_fleet

    _refuse_single_pipeline_faults(args)
    seed = {} if args.seed is None else {"seed": args.seed}
    spec = make_fleet(
        args.tenants, chunks=args.chunks, rows=args.rows, **seed
    )
    telemetry = _attach(args, rules=fleet_rules())
    orchestrator = FleetOrchestrator(
        spec, telemetry=telemetry, checkpoint=_checkpoint_config(args)
    )
    orchestrator.setup()
    # One item per epoch still to run, so the kill point counts epochs.
    epochs = iter(orchestrator.has_work, False)
    if args.sigkill_at is not None:
        epochs = _sigkill_stream(epochs, args.sigkill_at)
    for _ in epochs:
        orchestrator.run_epoch()
    _print_fleet_result(orchestrator.result())
    _finish(args, telemetry)


def _recover_fleet(args: argparse.Namespace) -> None:
    """``repro recover --approach fleet``: resume a whole fleet.

    The spec rides inside the checkpoint, so the directory is all a
    recovery needs; continuation is byte-identical to the
    uninterrupted run.
    """
    from repro.fleet import FleetOrchestrator, fleet_rules

    _refuse_single_pipeline_faults(args)
    telemetry = _attach(args, rules=fleet_rules())
    orchestrator = FleetOrchestrator.recover(
        _checkpoint_config(args), telemetry=telemetry
    )
    print(
        f"recovered fleet at epoch {orchestrator.epoch} "
        f"({len(orchestrator.tenants)} tenants); resuming"
    )
    result = orchestrator.run()
    _print_fleet_result(result)
    _finish(args, telemetry)


def _print_fleet_result(result) -> None:
    """Tenant table + fleet summary + the byte-identity digest."""
    print(
        f"{'tenant':<10} {'weight':>6} {'trainings':>9} "
        f"{'error':>10}"
    )
    for name, weight, trainings, error in zip(
        result.tenants,
        result.weights,
        result.trainings,
        result.per_tenant_error,
    ):
        print(
            f"{name:<10} {weight:>6.1f} {trainings:>9} "
            f"{error:>10.5f}"
        )
    print(
        f"\npolicy={result.policy} epochs={result.epochs} "
        f"aggregate_error={result.aggregate_error:.5f} "
        f"trainings={sum(result.trainings)} "
        f"rescues={result.rescues} "
        f"overdrafts={result.overdrafts} "
        f"cost={result.total_cost:.3f}"
    )
    print(f"fleet digest={result.digest}")


def _command_exp8(args: argparse.Namespace) -> Optional[int]:
    from repro.experiments.exp8_fleet import (
        format_comparison,
        headline_claims,
        run_fleet_experiment,
    )
    from repro.fleet import fleet_rules

    telemetry = _attach(args, rules=fleet_rules())
    seed = {} if args.seed is None else {"seed": args.seed}
    result = run_fleet_experiment(
        num_tenants=args.tenants,
        chunks=args.chunks,
        rows=args.rows,
        telemetry=telemetry,
        **seed,
    )
    print(format_comparison(result))
    claims = headline_claims(result)
    print(
        f"\nfair-share advantage at equal budget "
        f"({claims['fair_trainings']:.0f} trainings each): "
        f"{claims['fair_advantage']:+.5f} aggregate error "
        f"({'fair_share' if result.fair_beats_round_robin else 'round_robin'} wins); "
        f"rescues={claims['fair_rescues']:.0f} "
        f"balance={claims['fair_balance']:.4f}"
    )
    print(
        "same-seed replay byte-identical: schedule "
        f"{'yes' if result.digests_identical else 'NO'}, "
        "telemetry "
        f"{'yes' if result.telemetry_identical else 'NO'}"
    )
    _finish(args, telemetry)
    ok = (
        result.fair_beats_round_robin
        and result.equal_budget
        and result.digests_identical
        and result.telemetry_identical
    )
    return None if ok else 1


def _command_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis import lint, source_files

    root = Path(".")
    try:
        files = source_files(root)
    except FileNotFoundError as error:
        print(f"reprolint: {error}; run from the repository root",
              file=sys.stderr)
        return 2
    findings = lint(root)
    for finding in findings:
        print(finding.render())
    print(f"{len(findings)} finding(s) in {len(files)} file(s)")
    return 1 if findings else 0


def _command_exp6(args: argparse.Namespace) -> None:
    from repro.experiments.exp6_reliability import (
        DEFAULT_CADENCES,
        headline_claims,
        run_cadence_sweep,
        run_retry_demo,
    )

    scenario = _scenario(args)
    telemetry = _attach(args)
    cadences = (
        tuple(args.cadences)
        if args.cadences is not None
        else DEFAULT_CADENCES
    )
    points = run_cadence_sweep(
        scenario,
        cadences=cadences,
        kill_after_chunks=args.kill_after,
        approach=args.approach,
        telemetry=telemetry,
    )
    print(
        f"checkpoint cadence sweep (crash after "
        f"{args.kill_after} chunks, approach={args.approach}):"
    )
    print(
        f"{'cadence':>8} {'resume@':>8} {'redo':>6} "
        f"{'redone cost':>12} {'identical':>10}"
    )
    for point in points:
        print(
            f"{point.cadence:>8} {point.resume_cursor:>8} "
            f"{point.redo_chunks:>6} {point.redone_cost:>12.3f} "
            f"{str(point.identical):>10}"
        )
    demo = run_retry_demo(scenario, approach=args.approach)
    print(
        f"\ntransient faults: {demo.faults_planned} planned; "
        f"unprotected run "
        + (
            f"crashed ({demo.unprotected_error})"
            if demo.unprotected_crashed
            else "survived (?)"
        )
    )
    print(
        f"with retry: completed={demo.protected_completed} "
        f"retries={demo.protected_retries} "
        f"identical_to_clean={demo.identical_to_clean}"
    )
    claims = headline_claims(points, demo)
    print(
        f"claims: redo_monotone={claims['redo_monotone']:.0f} "
        f"all_identical={claims['all_identical']:.0f} "
        f"retry_masked={claims['retry_masked']:.0f}"
    )
    _finish(args, telemetry)


_COMMANDS = {
    "exp1": _command_exp1,
    "table3": _command_table3,
    "fig5": _command_fig5,
    "fig6": _command_fig6,
    "table4": _command_table4,
    "fig7": _command_fig7,
    "fig8": _command_fig8,
    "obs": _command_obs,
    "exp5": _command_exp5,
    "exp7": _command_exp7,
    "serve": _command_serve,
    "registry": _command_registry,
    "run": _command_run,
    "recover": _command_recover,
    "exp8": _command_exp8,
    "exp6": _command_exp6,
    "lint": _command_lint,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    Commands return ``None`` for plain success; ``lint`` returns the
    0/1/2 clean/findings/no-src contract.
    """
    args = build_parser().parse_args(argv)
    args.argv = list(sys.argv[1:] if argv is None else argv)
    warnings.simplefilter("ignore", ConvergenceWarning)
    code = _COMMANDS[args.command](args)
    return 0 if code is None else int(code)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())

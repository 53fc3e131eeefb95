"""Generated property: a fleet run from the CLI, then recovered from
its checkpoint directory, ends on the digest of the same fleet run in
process.

Each seed draws a small fleet (2-4 tenants, 3-6 chunks a tenant, 4-12
rows a chunk, a fleet seed) and a checkpoint cadence of 1-3 epochs.
``repro run --approach fleet --checkpoint-dir D`` runs it to the end,
checkpointing; ``repro recover --approach fleet --checkpoint-dir D``
resumes from the newest checkpoint, the last multiple of the cadence,
and runs the epochs after it. Both must print the ``fleet digest=``
line of ``FleetOrchestrator(make_fleet(...)).run()``, the reference,
which writes no checkpoint at all.

Everything is drawn from a ``repro.utils.rng`` seed; a failure names the
seed and the ``pytest -k`` line that replays it.
"""

import pytest

from repro.cli import main
from repro.fleet import FleetOrchestrator, make_fleet
from repro.utils.rng import ensure_rng

SEEDS = range(10)


def generate(seed):
    rng = ensure_rng([seed, 40])
    return {
        "tenants": int(rng.integers(2, 5)),
        "chunks": int(rng.integers(3, 7)),
        "rows": int(rng.integers(4, 13)),
        "seed": int(rng.integers(0, 100)),
        "cadence": int(rng.integers(1, 4)),
    }


def cli(argv, capsys):
    capsys.readouterr()
    assert main(argv) == 0
    return capsys.readouterr().out.splitlines()


def digest_line(lines):
    (line,) = [line for line in lines if line.startswith("fleet digest=")]
    return line


@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
def test_run_then_recover_ends_on_the_reference_digest(
    seed, tmp_path, capsys
):
    drawn = generate(seed)
    replay = (
        f"seed {seed}, {drawn}; replay: pytest "
        f"tests/property/test_property_fleet_cli.py -k 'seed{seed}]'"
    )
    reference = FleetOrchestrator(
        make_fleet(
            drawn["tenants"],
            seed=drawn["seed"],
            chunks=drawn["chunks"],
            rows=drawn["rows"],
        )
    ).run()
    expected = f"fleet digest={reference.digest}"
    checkpoints = [
        "--approach", "fleet", "--checkpoint-dir", str(tmp_path),
        "--cadence", str(drawn["cadence"]),
    ]
    ran = cli(
        ["run", *checkpoints, "--tenants", str(drawn["tenants"]),
         "--chunks", str(drawn["chunks"]), "--rows", str(drawn["rows"]),
         "--seed", str(drawn["seed"])],
        capsys,
    )
    assert digest_line(ran) == expected, replay
    recovered = cli(["recover", *checkpoints], capsys)
    resumed_at = drawn["chunks"] // drawn["cadence"] * drawn["cadence"]
    assert recovered[0] == (
        f"recovered fleet at epoch {resumed_at} "
        f"({drawn['tenants']} tenants); resuming"
    ), replay
    assert digest_line(recovered) == expected, replay

"""Is re-materializing a sample as one table worth it? (ROADMAP 1(a))

    PYTHONPATH=src python3 -m benchmarks.probe_batched_remat [ROUNDS]

``url_remat`` rebuilds 38 evicted chunks per proactive training on
average (4,603 over 120 trainings), one ``transform`` per 50-row chunk.
This sends the same 38 raw chunks through the fitted URL pipeline both
ways — chunk by chunk, and as one concatenated 1,900-row table — and
prints the median milliseconds per component, profiler off, the two
ways alternating within every round because this box's speed drifts.
Splitting the batched output back into chunks is *not* timed, so the
batched column is a lower bound on that design.

The answer decides whether batching is worth an issue: the saving has
to clear ``proactive_ms_p50``'s 0.20 bound on ``url_remat`` (~42 ms a
training), i.e. be well over 8 ms. EXPERIMENTS.md ("Wall clock of the
commands") records what it printed.
"""

import statistics
import sys
from itertools import islice
from time import perf_counter

import numpy as np

from repro.data.table import Table
from repro.experiments.common import url_scenario

SAMPLE_CHUNKS = 38
FITTED_CHUNKS = 300


def timed_transform(pipeline, batch, seconds):
    """``pipeline.transform(batch)``, adding each component's wall to
    ``seconds[name]``."""
    for component in pipeline.components:
        start = perf_counter()
        batch = component.transform(batch)
        seconds[component.name] = (
            seconds.get(component.name, 0.0) + perf_counter() - start
        )
    return batch


def main(rounds: int = 30) -> None:
    scenario = url_scenario("bench")
    pipeline = scenario.make_pipeline()
    stream = list(islice(scenario.make_stream(), FITTED_CHUNKS))
    for table in scenario.make_initial_data() + stream:
        pipeline.update_transform(table)
    # What a uniform sample misses: chunks older than the newest fifth.
    evicted = stream[: FITTED_CHUNKS - FITTED_CHUNKS // 5]
    picks = np.random.default_rng(0).choice(
        len(evicted), size=SAMPLE_CHUNKS, replace=False
    )
    sample = [evicted[index] for index in sorted(picks.tolist())]

    per_chunk, batched = [], []
    for _ in range(rounds):
        seconds = {}
        for table in sample:
            timed_transform(pipeline, table, seconds)
        per_chunk.append(seconds)
        seconds = {}
        start = perf_counter()
        whole = Table.concat(sample)
        seconds["(concat)"] = perf_counter() - start
        timed_transform(pipeline, whole, seconds)
        batched.append(seconds)

    def median_ms(runs, name):
        return 1e3 * statistics.median(run.get(name, 0.0) for run in runs)

    names = ["(concat)"] + pipeline.component_names
    print(
        f"{SAMPLE_CHUNKS} chunks x {sample[0].num_rows} rows, "
        f"median of {rounds} rounds, ms"
    )
    print(f"{'component':<14}{'chunk by chunk':>16}{'one table':>12}")
    for name in names:
        print(
            f"{name:<14}{median_ms(per_chunk, name):>16.2f}"
            f"{median_ms(batched, name):>12.2f}"
        )
    totals = [
        1e3 * statistics.median(sum(run.values()) for run in runs)
        for runs in (per_chunk, batched)
    ]
    print(f"{'total':<14}{totals[0]:>16.2f}{totals[1]:>12.2f}")


if __name__ == "__main__":
    main(*(int(argument) for argument in sys.argv[1:2]))

"""Compare two results directories written by ``run --out``.

    python -m benchmarks.e2e.compare A_DIR B_DIR

One row per workload x end-to-end metric: both medians, the relative
change of B against A (its base), the metric's bound, the timed
repeats behind each side and a verdict. Exits 1 on any ``worse`` or
when B fails a larger share of its operations than A, and 2 without
comparing when the two sets are not of the same workloads and seeds.
"""

import json
import statistics
import sys
from pathlib import Path
from typing import List, Optional

from benchmarks.e2e.report import load_results

ROOT = Path(__file__).resolve().parents[2]


def spread(values: List[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4, method="inclusive")
    return (high - low) / statistics.median(values)


def verdict(
    a: float,
    b: float,
    a_repeats: Optional[List[float]],
    b_repeats: Optional[List[float]],
    better: str,
    bound: float,
) -> str:
    """``same``, ``better``, ``worse`` or ``unresolved`` for B against A.

    ``unresolved``: a side has fewer than two repeats, so its spread
    is unknown; or the repeats of either side spread wider than the
    bound, unless every repeat of one side beats every repeat of the
    other. ``None`` for the repeats means the metric has one value a
    process (``peak_rss_mb``) and only the values are compared.
    """
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (b - a) / a
    if a_repeats is not None and b_repeats is not None:
        if min(len(a_repeats), len(b_repeats)) < 2:
            return "unresolved"
        if max(spread(a_repeats), spread(b_repeats)) > bound:
            costs_a = [sign * value for value in a_repeats]
            costs_b = [sign * value for value in b_repeats]
            if not (
                max(costs_b) < min(costs_a) or max(costs_a) < min(costs_b)
            ):
                return "unresolved"
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "same"


def compare(a_dir: Path, b_dir: Path) -> int:
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    a_results, b_results = load_results(a_dir), load_results(b_dir)
    if set(a_results) != set(b_results):
        print(
            f"not the same workloads: A has {sorted(a_results)}, "
            f"B has {sorted(b_results)}"
        )
        return 2
    for workload, a in a_results.items():
        b = b_results[workload]
        if a["seed"] != b["seed"]:
            print(f"{workload}: A ran seed {a['seed']}, B seed {b['seed']}")
            return 2
    failed = False
    print(
        f"{'workload':<17}{'metric':<18}{'A':>12}{'B':>12}"
        f"{'B vs A':>9}{'bound':>7}{'repeats':>9}  verdict"
    )
    for workload, a in a_results.items():
        b = b_results[workload]
        for metric in metrics:
            name = metric["name"]
            a_value, b_value = a["end_to_end"][name], b["end_to_end"][name]
            outcome = verdict(
                a_value,
                b_value,
                a["per_repeat"].get(name),
                b["per_repeat"].get(name),
                metric["better"],
                metric["bound"],
            )
            failed |= outcome == "worse"
            print(
                f"{workload:<17}{name:<18}{a_value:>12.4f}{b_value:>12.4f}"
                f"{(b_value - a_value) / a_value:>+9.1%}"
                f"{metric['bound']:>7.0%}"
                f"{a['repeats']:>5}/{b['repeats']:<3}  {outcome}"
            )
        a_rate = a["ops_failed"] / a["ops_attempted"]
        b_rate = b["ops_failed"] / b["ops_attempted"]
        if b_rate > a_rate:
            failed = True
            print(
                f"{workload}: failed operations rose from "
                f"{a['ops_failed']}/{a['ops_attempted']} to "
                f"{b['ops_failed']}/{b['ops_attempted']}"
            )
    return 1 if failed else 0


def main(argv=None) -> int:
    a_dir, b_dir = argv if argv is not None else sys.argv[1:]
    return compare(Path(a_dir), Path(b_dir))


if __name__ == "__main__":
    sys.exit(main())

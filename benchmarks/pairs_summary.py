"""One summary over all pairs of a ``make bench-e2e-compare`` run.

    python3 -m benchmarks.pairs_summary COMPARE_DIR

``COMPARE_DIR`` holds ``parent/N/<workload>.json`` and
``change/N/<workload>.json`` for pairs ``N = 1..``, as the Makefile
target writes them. Per workload and end-to-end metric of
``BENCHMARK.json`` it prints both sides' medians with quartiles over
the pairs, pairs won / pairs run (a tie counts for neither side), and
whether the rule for *claiming a gain* holds: the change wins at least
nine tenths of the pairs run and the medians are apart, in the better
direction, by more than the distance between the parent's quartiles.
Fewer than ten pairs never hold. It decides nothing about regressions
— that is ``benchmarks.e2e.compare``, per pair — and always exits 0.
"""

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

from benchmarks.e2e.report import load_results

ROOT = Path(__file__).resolve().parents[1]
MIN_PAIRS = 10


def load_pairs(compare_dir: Path) -> Dict[str, List[Tuple[dict, dict]]]:
    """``workload -> [(parent end_to_end, change end_to_end), ...]`` for
    every pair number both sides finished."""
    pairs: Dict[str, List[Tuple[dict, dict]]] = {}
    parent_dirs = (compare_dir / "parent").glob("*")
    for parent_dir in sorted(parent_dirs, key=lambda p: int(p.name)):
        change = load_results(compare_dir / "change" / parent_dir.name)
        for workload, parent in load_results(parent_dir).items():
            if workload in change:
                pairs.setdefault(workload, []).append(
                    (parent["end_to_end"], change[workload]["end_to_end"])
                )
    return pairs


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, median, high


def summarize(parent: List[float], change: List[float], better: str) -> dict:
    """Medians, quartiles, pairs won and the gain rule for one metric;
    ``parent[i]`` and ``change[i]`` are the two runs of pair ``i``."""
    sign = -1.0 if better == "lower" else 1.0
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    lost = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p_low, p_median, p_high = quartiles(parent)
    c_low, c_median, c_high = quartiles(change)
    gain = sign * (c_median - p_median)
    return {
        "parent": (p_median, p_low, p_high),
        "change": (c_median, c_low, c_high),
        "relative": (c_median - p_median) / p_median if p_median else 0.0,
        "won": won,
        "lost": lost,
        "pairs": len(parent),
        "holds": (
            len(parent) >= MIN_PAIRS
            and won >= 0.9 * len(parent)
            and gain > p_high - p_low
        ),
    }


def main(argv: List[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1])
        return 2
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    pairs = load_pairs(Path(argv[0]))
    if not pairs:
        print(f"no finished pairs under {argv[0]}")
        return 0
    for workload, runs in pairs.items():
        print(
            f"summary over {len(runs)} pair(s), {workload} — "
            "median [quartiles]; gain rule: >= 9/10 pairs won and "
            "medians apart by more than the parent's quartile distance"
        )
        for metric in metrics:
            name = metric["name"]
            row = summarize(
                [parent[name] for parent, __ in runs],
                [change[name] for __, change in runs],
                metric["better"],
            )
            sides = "  ".join(
                f"{side} {row[side][0]:.5g} "
                f"[{row[side][1]:.5g}, {row[side][2]:.5g}]"
                for side in ("parent", "change")
            )
            print(
                f"  {name:<17}{sides}  {row['relative']:+.1%}  "
                f"won {row['won']}/{row['pairs']} (lost {row['lost']})  "
                f"gain rule: {'holds' if row['holds'] else 'does not hold'}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Tables over a results directory written by ``run --out``.

    python -m benchmarks.e2e.report DIR

prints, per workload, layer x self seconds x share of the traced run
(the table ROADMAP item 1 asks for) and the stacked-overhead ratio.
"""

import json
import sys
from pathlib import Path
from typing import Dict


def load_results(directory: Path) -> Dict[str, dict]:
    """``{workload: result}`` for every ``<workload>.json`` in the directory."""
    return {
        path.stem: json.loads(path.read_text())
        for path in sorted(Path(directory).glob("*.json"))
    }


def stack_ratio(directory: Path) -> str:
    """``url_stack`` wall over ``url_continuous`` wall, with its base."""
    results = load_results(directory)
    if not {"url_stack", "url_continuous"} <= set(results):
        return "stack ratio: needs url_stack and url_continuous results"
    stacked = results["url_stack"]["end_to_end"]["rows_per_s"]
    bare = results["url_continuous"]["end_to_end"]["rows_per_s"]
    return (
        f"url_stack / url_continuous wall: {bare / stacked:.3f}x "
        f"({bare:.1f} rows/s bare, {stacked:.1f} rows/s stacked)"
    )


def layer_table(result: dict) -> str:
    """Layer x self seconds x share of one workload's traced run."""
    wall = result["traced_run_s"]
    lines = [
        f"{result['workload']}: traced run {wall:.2f} s",
        f"  {'layer':<14}{'self s':>9}{'share':>8}",
    ]
    for layer, seconds in sorted(
        result["layer_self_s"].items(), key=lambda item: -item[1]
    ):
        lines.append(f"  {layer:<14}{seconds:>9.3f}{seconds / wall:>8.1%}")
    return "\n".join(lines)


def main(argv=None) -> int:
    (directory,) = argv if argv is not None else sys.argv[1:]
    for result in load_results(directory).values():
        if result["layer_self_s"] is not None:
            print(layer_table(result))
    print(stack_ratio(directory))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Plain-text rendering shared by the report formatters."""

from __future__ import annotations

from typing import List, Sequence


def _align(rows: Sequence[Sequence[str]]) -> List[str]:
    """Render ``rows`` (header first) as indented, left-aligned
    columns with a dashed rule under the header."""
    widths = [
        max(len(row[column]) for row in rows)
        for column in range(len(rows[0]))
    ]
    lines = []
    for index, row in enumerate(rows):
        lines.append(
            "  "
            + "  ".join(
                cell.ljust(width) for cell, width in zip(row, widths)
            ).rstrip()
        )
        if index == 0:
            lines.append(
                "  " + "  ".join("-" * width for width in widths)
            )
    return lines

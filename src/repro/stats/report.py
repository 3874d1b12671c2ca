"""Plain-text result tables for benchmark output.

The benchmark harness prints the same rows/series the paper's tables and
figures report; this helper keeps that formatting in one place.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str = "",
) -> str:
    """Render an aligned plain-text table.

    Rows wider than ``headers`` are legal: the extra columns get
    headerless width slots (sized to their widest cell) instead of
    crashing the formatter.
    """
    materialized: List[List[str]] = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(cell))
            else:
                widths.append(len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()

    parts: List[str] = []
    if title:
        parts.append(title)
        parts.append("=" * len(title))
    parts.append(line(list(headers)))
    parts.append(line(["-" * width for width in widths]))
    parts.extend(line(row) for row in materialized)
    return "\n".join(parts)


"""Paper-style ASCII tables for the benchmark harnesses and the CLI."""

from __future__ import annotations

from typing import Iterable, List, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 float_fmt: str = "{:.4g}") -> str:
    """Render an ASCII table (used by benchmark harnesses to mimic paper tables)."""
    def fmt(cell: object) -> str:
        if isinstance(cell, float):
            return float_fmt.format(cell)
        return str(cell)

    str_rows: List[List[str]] = [[fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines = [" | ".join(h.ljust(w) for h, w in zip(headers, widths)), sep]
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)

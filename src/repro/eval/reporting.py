"""Plain-text table rendering for benchmark reports.

Every benchmark prints the rows/series of its paper table or figure;
this module keeps the formatting consistent and diff-friendly
(EXPERIMENTS.md embeds these tables verbatim).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

__all__ = ["format_table", "format_sci", "format_series"]


def format_sci(x: float) -> str:
    """Scientific notation like the paper's tables (1.80E-02)."""
    return f"{x:.2E}"


def format_table(headers: Sequence[str], rows: Iterable[Sequence],
                 title: Optional[str] = None) -> str:
    """Render an aligned ASCII table."""
    str_rows: List[List[str]] = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt_row(cells: Sequence[str]) -> str:
        return " | ".join(c.ljust(w) for c, w in zip(cells, widths))

    lines = []
    if title:
        lines.append(title)
    lines.append(fmt_row(list(headers)))
    lines.append("-+-".join("-" * w for w in widths))
    for row in str_rows:
        lines.append(fmt_row(row))
    return "\n".join(lines)


def format_series(xs: Sequence, ys: Sequence, x_label: str = "x",
                  y_label: str = "y", title: Optional[str] = None) -> str:
    """Render an (x, y) series as a two-column table (figure data)."""
    return format_table(
        [x_label, y_label],
        [[x, y] for x, y in zip(xs, ys)],
        title=title,
    )

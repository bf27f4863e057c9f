"""Plain-text rendering helpers for the benchmark harness.

The paper reports its evaluation as bar charts and line plots; this
reproduction regenerates the same rows/series as ASCII tables so the harness
has no plotting dependency and its output can be diffed in CI.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Union

__all__ = ["format_bytes", "format_seconds", "format_table"]

Cell = Union[str, int, float]


def format_bytes(num_bytes: float) -> str:
    """Render a byte count with a binary-prefix unit (KiB/MiB/GiB)."""
    if num_bytes < 0:
        raise ValueError(f"num_bytes must be non-negative, got {num_bytes}")
    value = float(num_bytes)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if value < 1024.0 or unit == "TiB":
            if unit == "B":
                return f"{value:.0f} {unit}"
            return f"{value:.2f} {unit}"
        value /= 1024.0
    raise AssertionError("unreachable")


def format_seconds(seconds: float) -> str:
    """Render a duration using the most readable of s / ms / us."""
    if seconds < 0:
        raise ValueError(f"seconds must be non-negative, got {seconds}")
    if seconds >= 1.0:
        return f"{seconds:.3f} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.3f} ms"
    return f"{seconds * 1e6:.1f} us"


def _render_cell(cell: Cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.4g}"
    return str(cell)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Cell]],
    *,
    title: str = "",
) -> str:
    """Render a list of rows as a monospaced table.

    Column widths are computed from the data; every cell is left-aligned for
    strings and right-aligned for numbers, matching how the paper's tables
    read.
    """
    header_cells = [str(h) for h in headers]
    body: List[List[str]] = []
    numeric: List[bool] = [True] * len(header_cells)
    for row in rows:
        row = list(row)
        if len(row) != len(header_cells):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(header_cells)} columns"
            )
        rendered = [_render_cell(c) for c in row]
        for i, c in enumerate(row):
            if not isinstance(c, (int, float)) or isinstance(c, bool):
                numeric[i] = False
        body.append(rendered)

    widths = [len(h) for h in header_cells]
    for row in body:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt_row(cells: Sequence[str]) -> str:
        parts = []
        for i, cell in enumerate(cells):
            if numeric[i] and cells is not header_cells:
                parts.append(cell.rjust(widths[i]))
            else:
                parts.append(cell.ljust(widths[i]))
        return "| " + " | ".join(parts) + " |"

    sep = "|-" + "-|-".join("-" * w for w in widths) + "-|"
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(fmt_row(header_cells))
    lines.append(sep)
    lines.extend(fmt_row(row) for row in body)
    return "\n".join(lines)

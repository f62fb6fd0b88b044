"""Plain-text table rendering for benchmark output."""

from __future__ import annotations

from typing import List, Optional, Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: str = "") -> str:
    """Render an aligned plain-text table."""
    cells = [[format_cell(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_cell(value: object) -> str:
    """One table cell as text (``None`` is ``-``, floats 2 or 1 decimals)."""
    if value is None:
        return "-"
    if isinstance(value, float):
        if value >= 100:
            return f"{value:.1f}"
        return f"{value:.2f}"
    return str(value)


def reduction(original: float, optimized: float) -> float:
    """Latency reduction percentage (Table 4/5 style)."""
    if original <= 0:
        return 0.0
    return 100.0 * (1.0 - optimized / original)


def improvement(new: float, old: float) -> float:
    """Throughput improvement percentage (Table 6 style)."""
    if old <= 0:
        return 0.0
    return 100.0 * (new / old - 1.0)

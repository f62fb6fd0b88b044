"""Markdown formatters for the evaluation (``crossover paper
--markdown``).

The paper sections of :mod:`repro.analysis.report` build their headers
and rows once; these turn them into GitHub-flavoured markdown instead
of aligned plain text.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.analysis.tables import format_cell


def md_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
             title: str = "") -> str:
    """Render a GitHub-flavoured markdown table (under a ``##`` heading
    when titled), set off by blank lines so it never runs into the
    prose around it."""
    lines = [f"## {title}", ""] if title else [""]
    lines += ["| " + " | ".join(headers) + " |",
              "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(format_cell(c) for c in row) + " |")
    return "\n".join(lines) + "\n"


def md_block(text: str) -> str:
    """Preformatted text (a sequence diagram, a CPU grid) as a fenced
    code block."""
    return f"```text\n{text}\n```"

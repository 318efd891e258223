"""The one fixed-width layout for plain-text report tables."""

from __future__ import annotations


def render_table(rows: list[list[str]]) -> str:
    """Left-aligned columns two spaces apart; the first row is the header,
    underlined with dashes. Trailing blanks are trimmed from each row."""
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"

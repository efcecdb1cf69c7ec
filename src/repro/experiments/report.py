"""Plain-text table rendering for experiment results.

Every experiment driver emits rows as flat dicts; :func:`format_table`
renders them in the aligned, monospace style of the paper's tables so
the bench output can be compared side by side with the publication.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional, Sequence


def format_table(rows: Sequence[Mapping[str, object]],
                 title: Optional[str] = None,
                 columns: Optional[Sequence[str]] = None) -> str:
    """Render rows as an aligned text table."""
    if not rows:
        return f"{title or 'table'}: (no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    widths = {
        col: max(len(str(col)), *(len(_fmt(row.get(col))) for row in rows))
        for col in columns
    }
    lines: List[str] = []
    if title:
        lines.append(title)
    header = "  ".join(str(col).ljust(widths[col]) for col in columns)
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        lines.append(
            "  ".join(_fmt(row.get(col)).ljust(widths[col]) for col in columns)
        )
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def mean(values: Iterable[float], empty: float = 0.0) -> float:
    """Arithmetic mean, defined as ``empty`` for an empty sequence.

    The per-table average properties use this so a result with no
    comparisons renders an average of 0.0 instead of dying on a
    ZeroDivisionError.
    """
    data = list(values)
    if not data:
        return empty
    return sum(data) / len(data)


def summary_line(label: str, values: Iterable[float]) -> str:
    """A one-line average summary like the paper's in-text averages."""
    data = list(values)
    if not data:
        return f"{label}: n/a"
    return f"{label}: {mean(data):.1f}"

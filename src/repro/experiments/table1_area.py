"""Table I: comparison of percentage area increase.

For every benchmark circuit: flip-flop count, total and unique state-
input fanouts, and the percentage increase in total transistor active
area of enhanced scan, the MUX-based method, and FLH over the plain
full-scan baseline -- plus FLH's improvement over each.

Paper headline: FLH reduces area overhead by 33% on average versus
enhanced scan and 26% versus the MUX method; circuits with very high
state-input fanout (s838) can invert the ranking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..dft import OverheadComparison, compare_area
from .common import (
    default_circuits,
    per_circuit,
    structural_row,
    styled_designs,
)
from .report import format_table, mean, summary_line


@dataclass(frozen=True)
class Table1Result:
    """All rows plus the paper-style averages."""

    rows: List[Dict[str, object]]
    comparisons: List[OverheadComparison]

    @property
    def average_improvement_vs_enhanced(self) -> float:
        """Average % reduction of area overhead vs enhanced scan."""
        return mean(
            c.improvement_vs_enhanced for c in self.comparisons
        )

    @property
    def average_improvement_vs_mux(self) -> float:
        """Average % reduction of area overhead vs the MUX method."""
        return mean(
            c.improvement_vs_mux for c in self.comparisons
        )

    def render(self) -> str:
        """Paper-style text table."""
        body = format_table(
            self.rows, title="Table I -- comparison of percentage area increase"
        )
        lines = [
            body,
            summary_line(
                "average FLH improvement over enhanced scan (%)",
                (c.improvement_vs_enhanced for c in self.comparisons),
            ),
            summary_line(
                "average FLH improvement over MUX (%)",
                (c.improvement_vs_mux for c in self.comparisons),
            ),
        ]
        return "\n".join(lines)


def _circuit_result(name: str):
    """Row + comparison for one circuit."""
    designs = styled_designs(name)
    comparison = compare_area(designs)
    row = structural_row(name)
    row.update(comparison.as_row())
    row.pop("circuit", None)
    row = {"circuit": name, **row}
    return row, comparison


def run(circuits: Optional[Sequence[str]] = None) -> Table1Result:
    """Run the Table I experiment; a circuit that raises fails it."""
    results = per_circuit(_circuit_result, circuits or default_circuits(1))
    return Table1Result(rows=[row for row, _ in results],
                        comparisons=[comparison for _, comparison in results])

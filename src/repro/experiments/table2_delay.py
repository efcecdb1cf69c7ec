"""Table II: comparison of delay overhead.

For every benchmark circuit: critical-path logic depth and the
percentage increase in critical-path delay under enhanced scan,
MUX-hold and FLH, plus FLH's improvement over each.

Paper headline: the MUX method is the slowest, FLH the fastest; FLH's
*delay overhead* is on average 71% smaller than enhanced scan's, and
the advantage grows as logic depth shrinks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..dft import OverheadComparison, compare_delay
from ..timing import analyze
from .common import default_circuits, styled_designs
from .parallel import error_row, run_per_circuit
from .report import format_table, mean, summary_line


@dataclass(frozen=True)
class Table2Result:
    """All rows plus the paper-style averages."""

    rows: List[Dict[str, object]]
    comparisons: List[OverheadComparison]

    @property
    def average_improvement_vs_enhanced(self) -> float:
        """Average % reduction of delay overhead vs enhanced scan."""
        return mean(
            c.improvement_vs_enhanced for c in self.comparisons
        )

    def render(self) -> str:
        """Paper-style text table."""
        body = format_table(
            self.rows, title="Table II -- comparison of delay overhead"
        )
        lines = [
            body,
            summary_line(
                "average FLH improvement in delay overhead vs enhanced (%)",
                (c.improvement_vs_enhanced for c in self.comparisons),
            ),
            summary_line(
                "average FLH improvement in delay overhead vs MUX (%)",
                (c.improvement_vs_mux for c in self.comparisons),
            ),
        ]
        return "\n".join(lines)


def _circuit_result(name: str):
    """Row + comparison for one circuit (module-level: picklable)."""
    designs = styled_designs(name)
    report = analyze(designs["scan"].netlist, designs["scan"].library)
    comparison = compare_delay(designs)
    row: Dict[str, object] = {
        "circuit": name,
        "crit_levels": report.critical_levels,
    }
    row.update(
        {k: v for k, v in comparison.as_row().items() if k != "circuit"}
    )
    return row, comparison


def run(circuits: Optional[Sequence[str]] = None,
        processes: int = 1,
        task_timeout: Optional[float] = None) -> Table2Result:
    """Run the Table II experiment (see Table I for the parallel knobs)."""
    names = list(circuits or default_circuits(2))
    rows: List[Dict[str, object]] = []
    comparisons: List[OverheadComparison] = []
    for outcome in run_per_circuit(_circuit_result, names,
                                   processes=processes,
                                   timeout=task_timeout):
        if outcome.ok:
            row, comparison = outcome.value
            rows.append(row)
            comparisons.append(comparison)
        else:
            rows.append(error_row(outcome))
    return Table2Result(rows=rows, comparisons=comparisons)

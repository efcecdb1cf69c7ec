"""Table III: comparison of power overhead during normal mode.

For every benchmark circuit: percentage increase in normal-mode power
(100 random vectors) under enhanced scan, MUX-hold and FLH.

Paper headline: FLH power is close to (sometimes below) the original
circuit -- the gating transistors never switch in normal mode, the
keepers are minimum-sized, and the supply-gating stack trims the active
leakage of the first-level gates.  The reduction in power *overhead*
versus enhanced scan is about 90% on average.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..dft import OverheadComparison, compare_power
from .common import (
    POWER_VECTORS,
    SEED,
    default_circuits,
    per_circuit,
    styled_designs,
)
from .report import format_table, mean, summary_line


@dataclass(frozen=True)
class Table3Result:
    """All rows plus the paper-style averages."""

    rows: List[Dict[str, object]]
    comparisons: List[OverheadComparison]

    @property
    def average_improvement_vs_enhanced(self) -> float:
        """Average % reduction of power overhead vs enhanced scan."""
        return mean(
            c.improvement_vs_enhanced for c in self.comparisons
        )

    @property
    def circuits_below_original(self) -> List[str]:
        """Circuits whose FLH power is below the unmodified circuit."""
        return [c.circuit for c in self.comparisons if c.flh_pct < 0.0]

    def render(self) -> str:
        """Paper-style text table."""
        body = format_table(
            self.rows,
            title="Table III -- comparison of power overhead (normal mode)",
        )
        lines = [
            body,
            summary_line(
                "average FLH improvement in power overhead vs enhanced (%)",
                (c.improvement_vs_enhanced for c in self.comparisons),
            ),
            summary_line(
                "average FLH improvement in power overhead vs MUX (%)",
                (c.improvement_vs_mux for c in self.comparisons),
            ),
            "FLH below original power: "
            + (", ".join(self.circuits_below_original) or "(none)"),
        ]
        return "\n".join(lines)


def _circuit_result(name: str, n_vectors: int) -> OverheadComparison:
    """Comparison for one circuit."""
    designs = styled_designs(name)
    return compare_power(designs, n_vectors=n_vectors, seed=SEED)


def run(circuits: Optional[Sequence[str]] = None,
        n_vectors: int = POWER_VECTORS) -> Table3Result:
    """Run the Table III experiment; a circuit that raises fails it."""
    comparisons = per_circuit(lambda name: _circuit_result(name, n_vectors),
                              circuits or default_circuits(3))
    return Table3Result(rows=[c.as_row() for c in comparisons],
                        comparisons=comparisons)

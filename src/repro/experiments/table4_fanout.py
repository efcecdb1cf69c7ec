"""Table IV: area / combinational power before and after fanout
optimization.

Runs the Section V local fanout-reduction algorithm on the high-flip-
flop-count circuits and reports: first-level gate count before/after,
FLH area overhead before/after with the improvement percentage, and the
normal-mode combinational power before/after.

Paper headline: up to 37% (average 18%) lower FLH area overhead under an
unchanged delay constraint, with comparable combinational power; for
some circuits (s5378) the number of first-level gates drops below the
number of flip-flops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..dft import FanoutOptResult, insert_scan, optimize_fanout
from ..synth import map_netlist
from .common import SEED, circuit, default_circuits
from .report import format_table, mean, summary_line


@dataclass(frozen=True)
class Table4Result:
    """All rows plus the paper-style averages."""

    rows: List[Dict[str, object]]
    results: List[FanoutOptResult]

    @property
    def average_improvement(self) -> float:
        """Average % reduction of FLH area overhead."""
        return mean(r.area_improvement_pct for r in self.results)

    @property
    def best_improvement(self) -> float:
        """Best-case % reduction (paper: up to 37%; 0.0 on no results)."""
        return max(
            (r.area_improvement_pct for r in self.results), default=0.0
        )

    @property
    def circuits_below_ff_count(self) -> List[str]:
        """Circuits ending with fewer first-level gates than flip-flops."""
        return [
            r.circuit for r in self.results
            if r.first_level_after < r.n_ffs
        ]

    def render(self) -> str:
        """Paper-style text table."""
        body = format_table(
            self.rows,
            title=(
                "Table IV -- area / power before and after fanout "
                "optimization"
            ),
        )
        lines = [
            body,
            summary_line(
                "average area-overhead improvement (%)",
                (r.area_improvement_pct for r in self.results),
            ),
            f"best improvement (%): {self.best_improvement:.1f}",
            "first-level gates below FF count: "
            + (", ".join(self.circuits_below_ff_count) or "(none)"),
        ]
        return "\n".join(lines)


def run(circuits: Optional[Sequence[str]] = None,
        n_vectors: int = 50,
        max_candidates: Optional[int] = None) -> Table4Result:
    """Run the Table IV experiment.

    ``max_candidates`` bounds the per-circuit optimization work (useful
    for quick runs; None = optimize every eligible flip-flop).
    """
    names = list(circuits or default_circuits(4))
    rows: List[Dict[str, object]] = []
    results: List[FanoutOptResult] = []
    for name in names:
        mapped = map_netlist(circuit(name))
        scan = insert_scan(mapped)
        result = optimize_fanout(
            scan,
            n_vectors=n_vectors,
            seed=SEED,
            max_candidates=max_candidates,
        )
        results.append(result)
        rows.append(result.as_row())
    return Table4Result(rows=rows, results=results)

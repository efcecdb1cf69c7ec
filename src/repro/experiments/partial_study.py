"""Partial enhanced scan trade-off study (reference [3] baseline).

Sweeps the fraction of flip-flops given hold latches and measures the
area overhead / transition coverage frontier, with FLH as the final
row: full-enhanced-scan coverage below full-enhanced-scan area.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..dft import insert_partial_enhanced, total_area
from ..fault import (
    STYLE_ARBITRARY,
    STYLE_PARTIAL,
    TransitionAtpg,
    all_transition_faults,
    collapse_transition,
)
from .common import styled_designs
from .report import format_table

DEFAULT_FRACTIONS = (0.25, 0.5, 0.75, 1.0)


@dataclass(frozen=True)
class PartialStudyResult:
    """Frontier rows; the last row is FLH."""

    circuit: str
    rows: List[Dict[str, object]]

    @property
    def partial_rows(self) -> List[Dict[str, object]]:
        """Only the partial-enhanced-scan sweep rows."""
        return self.rows[:-1]

    @property
    def flh_row(self) -> Dict[str, object]:
        """The FLH comparison row."""
        return self.rows[-1]

    @property
    def flh_dominates(self) -> bool:
        """FLH matches the best coverage at lower area."""
        full = self.partial_rows[-1]
        return (
            self.flh_row["coverage"] >= full["coverage"] - 1e-9
            and self.flh_row["area_ovh_%"] < full["area_ovh_%"]
        )

    def render(self) -> str:
        """Readable frontier table."""
        return "\n".join(
            [
                format_table(
                    self.rows,
                    title=(
                        f"partial enhanced scan vs FLH ({self.circuit})"
                    ),
                ),
                f"FLH dominates full enhanced scan: "
                f"{'YES' if self.flh_dominates else 'NO'}",
            ]
        )


def run(circuit_name: str = "s298",
        fractions: Sequence[float] = DEFAULT_FRACTIONS,
        n_random_pairs: int = 32, seed: int = 7) -> PartialStudyResult:
    """Run the trade-off sweep on one circuit."""
    designs = styled_designs(circuit_name)
    scan = designs["scan"]
    netlist = scan.netlist
    base_area = total_area(scan)
    faults = collapse_transition(netlist, all_transition_faults(netlist))

    rows: List[Dict[str, object]] = []
    for fraction in fractions:
        partial = insert_partial_enhanced(scan, fraction=fraction)
        engine = TransitionAtpg(
            netlist, held_state=partial.held_flip_flops, seed=seed
        )
        result = engine.generate(
            faults, style=STYLE_PARTIAL, n_random_pairs=n_random_pairs
        )
        rows.append(
            {
                "held_fraction": fraction,
                "held_ffs": len(partial.held_flip_flops),
                "area_ovh_%": round(
                    (total_area(partial) - base_area) / base_area * 100, 2
                ),
                "coverage": round(result.coverage, 4),
            }
        )

    flh = designs["flh"]
    flh_result = TransitionAtpg(netlist, seed=seed).generate(
        faults, style=STYLE_ARBITRARY, n_random_pairs=n_random_pairs
    )
    rows.append(
        {
            "held_fraction": "FLH",
            "held_ffs": len(netlist.state_inputs),
            "area_ovh_%": round(
                (total_area(flh) - base_area) / base_area * 100, 2
            ),
            "coverage": round(flh_result.coverage, 4),
        }
    )
    return PartialStudyResult(circuit=circuit_name, rows=rows)

"""Process-variation motivation study (paper Section I).

Monte-Carlo STA quantifies how per-gate delay fluctuation spreads the
critical delay (delay faults without defects), and the defect-escape
study shows the arbitrary two-pattern application style catching more
variation-induced gross delay defects than the broadside baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from .. import units
from ..fault import (
    STYLE_ARBITRARY,
    STYLE_BROADSIDE,
    EscapeReport,
    TransitionAtpg,
    all_transition_faults,
    collapse_transition,
    escape_study,
)
from ..timing import VariationReport, monte_carlo_delay
from .common import circuit, styled_designs
from .report import format_table


@dataclass(frozen=True)
class VariationQualityResult:
    """Monte-Carlo spread plus per-style escape rates."""

    circuit: str
    variation: VariationReport
    clock_period: float
    failure_probability: float
    escapes: Dict[str, EscapeReport]

    @property
    def ordering_holds(self) -> bool:
        """Arbitrary application lets no more defects escape."""
        return (
            self.escapes[STYLE_ARBITRARY].escape_rate
            <= self.escapes[STYLE_BROADSIDE].escape_rate
        )

    def render(self) -> str:
        """Readable two-table summary."""
        v = self.variation
        spread_rows: List[Dict[str, object]] = [
            {
                "nominal_ps": round(v.nominal_delay / units.PS, 1),
                "mean_ps": round(v.mean / units.PS, 1),
                "std_ps": round(v.std / units.PS, 2),
                "worst_ps": round(v.worst / units.PS, 1),
                "P(fail)": round(self.failure_probability, 3),
            }
        ]
        escape_rows = [
            {
                "test_set": label,
                "defects": r.n_defects,
                "caught": r.caught,
                "escape_rate": round(r.escape_rate, 3),
            }
            for label, r in self.escapes.items()
        ]
        return "\n".join(
            [
                format_table(
                    spread_rows,
                    title=(
                        f"Monte-Carlo critical delay ({self.circuit}, "
                        f"clock = nominal + 5%)"
                    ),
                ),
                format_table(
                    escape_rows,
                    title="variation-induced delay-defect escapes",
                ),
                "arbitrary escapes <= broadside: "
                + ("YES" if self.ordering_holds else "NO"),
            ]
        )


def run(circuit_name: str = "s298", n_samples: int = 200,
        sigma: float = 0.08, n_defects: int = 60,
        n_random_pairs: int = 48, seed: int = 9) -> VariationQualityResult:
    """Run the Section I study on one circuit."""
    netlist = circuit(circuit_name)
    mapped = styled_designs(circuit_name)["scan"].netlist

    variation = monte_carlo_delay(
        mapped, n_samples=n_samples, sigma=sigma
    )
    clock = variation.nominal_delay * 1.05
    fail_prob = variation.failure_probability(clock)

    faults = collapse_transition(netlist, all_transition_faults(netlist))
    test_sets = {}
    for style in (STYLE_ARBITRARY, STYLE_BROADSIDE):
        result = TransitionAtpg(netlist, seed=3).generate(
            faults, style=style, n_random_pairs=n_random_pairs
        )
        test_sets[style] = result.tests
    escapes = escape_study(
        netlist, test_sets, n_defects=n_defects, seed=seed
    )
    return VariationQualityResult(
        circuit=circuit_name,
        variation=variation,
        clock_period=clock,
        failure_probability=fail_prob,
        escapes=escapes,
    )

"""Section IV claims: fault coverage.

Three measurements per circuit:

1. transition-fault coverage under the three application styles --
   arbitrary (enhanced scan / FLH) dominates skewed-load dominates
   broadside, the paper's Section I motivation;
2. stuck-at coverage via the two-phase fault-dropping pipeline
   (:mod:`repro.fault.atpg_flow`) -- the baseline every delay-test
   flow sits on, plus how much of it random patterns buy;
3. capture-response equality of enhanced scan and FLH over a shared
   test set -- "fault coverage for enhanced scan and FLH for a given
   test set remain unchanged".

The section's scan-shift power claim is :mod:`.shift_power`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict

from ..fault import (
    AtpgFlow,
    AtpgFlowConfig,
    all_transition_faults,
    collapse_transition,
    compare_styles,
)
from ..testapp import apply_two_pattern
from .common import SEED, circuit, styled_designs
from .report import format_table


@dataclass(frozen=True)
class CoverageStudyResult:
    """Everything Section IV claims, measured."""

    circuit: str
    coverage_by_style: Dict[str, float]
    effective_by_style: Dict[str, float]
    responses_identical: bool
    #: Stuck-at baseline via the two-phase fault-dropping pipeline.
    stuck_coverage: float = 0.0
    stuck_n_faults: int = 0
    stuck_detected_random: int = 0   # retired by phase-1 random patterns
    stuck_podem_calls: int = 0       # phase-2 deterministic targets

    @property
    def ordering_holds(self) -> bool:
        """arbitrary >= skewed-load >= broadside."""
        c = self.effective_by_style
        return (
            c["arbitrary"] >= c["skewed-load"] - 1e-9
            and c["skewed-load"] >= c["broadside"] - 1e-9
        )

    def render(self) -> str:
        """Readable summary."""
        rows = [
            {
                "style": style,
                "coverage": round(self.coverage_by_style[style], 4),
                "effective": round(self.effective_by_style[style], 4),
            }
            for style in ("arbitrary", "skewed-load", "broadside")
        ]
        lines = [
            f"Section IV coverage study ({self.circuit})",
            format_table(rows),
            f"coverage ordering arbitrary >= skewed >= broadside: "
            f"{'YES' if self.ordering_holds else 'NO'}",
            f"enhanced-scan and FLH responses identical: "
            f"{'YES' if self.responses_identical else 'NO'}",
            f"stuck-at coverage (two-phase flow): "
            f"{self.stuck_coverage:.4f} over {self.stuck_n_faults} faults "
            f"({self.stuck_detected_random} random-detected, "
            f"{self.stuck_podem_calls} PODEM calls)",
        ]
        return "\n".join(lines)


def run(circuit_name: str = "s298", seed: int = SEED,
        n_random_pairs: int = 64, n_check_tests: int = 20,
        backend: str = "auto") -> CoverageStudyResult:
    """Run the full Section IV study on one circuit.

    ``backend`` selects the fault-simulation engine for both the style
    comparison and the stuck-at flow; the rendered study is
    byte-identical across backends (pinned in the test suite).
    """
    netlist = circuit(circuit_name)
    faults = collapse_transition(netlist, all_transition_faults(netlist))
    results = compare_styles(
        netlist, faults, seed=seed, n_random_pairs=n_random_pairs,
        backend=backend,
    )

    designs = styled_designs(circuit_name)
    rng = random.Random(seed)
    nets = list(netlist.inputs) + list(netlist.state_inputs)
    identical = True
    for _ in range(n_check_tests):
        v1 = {net: rng.randint(0, 1) for net in nets}
        v2 = {net: rng.randint(0, 1) for net in nets}
        te = apply_two_pattern(designs["enhanced"], v1, v2)
        tf = apply_two_pattern(designs["flh"], v1, v2)
        if (te.captured_state != tf.captured_state
                or te.observed_outputs != tf.observed_outputs):
            identical = False
            break

    flow = AtpgFlow(netlist, AtpgFlowConfig(seed=seed,
                                            backend=backend)).run()
    summary = flow.summary()

    return CoverageStudyResult(
        circuit=circuit_name,
        coverage_by_style={s: r.coverage for s, r in results.items()},
        effective_by_style={
            s: r.effective_coverage for s, r in results.items()
        },
        responses_identical=identical,
        stuck_coverage=flow.coverage,
        stuck_n_faults=flow.n_faults,
        stuck_detected_random=int(summary["detected_random"]),
        stuck_podem_calls=flow.podem_calls,
    )

"""Test quality against variation-induced delay defects.

The paper's opening argument: process fluctuation makes marginal delay
defects likely, so manufacturing test must include two-pattern delay
tests.  This module closes the loop: it samples "slow nets" (gates hit
by a gross variation-induced slowdown), then measures which share of
those defects a given two-pattern test set catches under each
application style.  A gross delay defect at a net is caught by a pair
iff the pair launches the corresponding transition at the net and
propagates it to an observation point -- the transition-fault detection
condition, evaluated with the bit-parallel fault simulator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence

from ..errors import SimulationError
from ..netlist import Netlist
from .fsim import FaultSimulator
from .models import FALL, RISE, TransitionFault
from .transition import TwoPatternTest


@dataclass(frozen=True)
class EscapeReport:
    """Delay-defect escape study for one test set."""

    label: str
    n_defects: int
    caught: int

    @property
    def escape_rate(self) -> float:
        """Fraction of sampled delay defects the test set misses."""
        if self.n_defects == 0:
            return 0.0
        return 1.0 - self.caught / self.n_defects


def sample_delay_defects(netlist: Netlist, n_defects: int = 50,
                         seed: int = 2005) -> List[TransitionFault]:
    """Sample variation-induced gross delay defects as transition faults.

    Each defect is a slow-to-rise or slow-to-fall at a random
    combinational net -- the footprint of a gate whose device corner
    came out slow enough to miss the rated clock.

    Raises :class:`~repro.errors.SimulationError` when the netlist has
    no combinational gates to sample from (an FF-only or input-only
    circuit cannot host a gate delay defect).
    """
    rng = random.Random(seed)
    nets = [g.name for g in netlist.combinational_gates()]
    if n_defects <= 0:
        return []
    if not nets:
        raise SimulationError(
            f"cannot sample delay defects: netlist {netlist.name!r} "
            "has no combinational gates"
        )
    defects: List[TransitionFault] = []
    for _ in range(n_defects):
        net = rng.choice(nets)
        direction = RISE if rng.random() < 0.5 else FALL
        defects.append(TransitionFault(net, direction))
    return defects


def escape_study(netlist: Netlist,
                 test_sets: Mapping[str, Sequence[TwoPatternTest]],
                 n_defects: int = 50, seed: int = 2005,
                 backend: str = "auto",
                 ) -> Dict[str, EscapeReport]:
    """Escape rate of each labelled test set over one defect sample.

    All test sets face the *same* defect population, so the comparison
    isolates the application style (the paper's argument for arbitrary
    two-pattern capability).  The simulation backend never changes the
    report.
    """
    defects = sample_delay_defects(netlist, n_defects, seed)
    sim = FaultSimulator(netlist, backend=backend)
    reports: Dict[str, EscapeReport] = {}
    for label, tests in test_sets.items():
        if tests:
            result = sim.simulate_transition(
                defects, [(t.v1, t.v2) for t in tests]
            )
            caught = sum(1 for mask in result.detected.values() if mask)
        else:
            caught = 0
        reports[label] = EscapeReport(
            label=label, n_defects=len(defects), caught=caught
        )
    return reports

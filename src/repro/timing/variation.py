"""Monte-Carlo timing under process variation.

The paper's opening motivation: "an emerging cause of delay failure is
the uncertainty in circuit design due to process fluctuations" -- a die
can pass stuck-at test yet miss timing on some paths.  This module
quantifies that: every cell instance gets a log-normal delay multiplier
(sigma per gate, as channel-length/Vth fluctuations act per device) and
the critical delay is re-evaluated per sample, yielding the delay-fault
probability at a given clock -- the number that makes two-pattern delay
testing "mandatory".
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..cells import Library
from ..netlist import Netlist
from .delay_model import CLK_TO_Q, SETUP_TIME, DelayOverlay
from .sta import timing_state


@dataclass(frozen=True)
class VariationReport:
    """Monte-Carlo critical-delay statistics."""

    circuit: str
    nominal_delay: float
    samples: Tuple[float, ...]

    @property
    def mean(self) -> float:
        """Mean sampled critical delay (0.0 when no samples were drawn)."""
        if not self.samples:
            return 0.0
        return sum(self.samples) / len(self.samples)

    @property
    def std(self) -> float:
        """Standard deviation of the sampled critical delay (0.0 when
        no samples were drawn)."""
        if not self.samples:
            return 0.0
        mu = self.mean
        return math.sqrt(
            sum((s - mu) ** 2 for s in self.samples) / len(self.samples)
        )

    @property
    def worst(self) -> float:
        """Worst sampled critical delay (0.0 when no samples were drawn)."""
        if not self.samples:
            return 0.0
        return max(self.samples)

    def failure_probability(self, clock_period: float) -> float:
        """Fraction of samples missing ``clock_period`` (0.0 when no
        samples were drawn)."""
        if not self.samples:
            return 0.0
        return sum(
            1 for s in self.samples if s > clock_period
        ) / len(self.samples)


def monte_carlo_delay(netlist: Netlist,
                      library: Optional[Library] = None,
                      overlay: Optional[DelayOverlay] = None,
                      n_samples: int = 200,
                      sigma: float = 0.08,
                      seed: int = 2005) -> VariationReport:
    """Sample the critical delay under per-gate delay variation.

    Each combinational gate's delay is scaled by an independent
    log-normal factor with the given ``sigma`` (about 8 % per-gate delay
    spread is typical of sub-100 nm nodes).  One topological pass per
    sample; gate base delays are computed once.
    """
    rng = random.Random(seed)
    timing = timing_state(netlist, library, overlay)
    order = timing.order
    base_delay = timing.delay
    fanins = {name: netlist.gate(name).fanin for name in order}
    pos = tuple(netlist.outputs)
    state_outs = tuple(netlist.state_outputs)

    nominal = timing.critical_delay
    samples: List[float] = []
    for _ in range(n_samples):
        arrival: Dict[str, float] = {net: 0.0 for net in netlist.inputs}
        for net in netlist.state_inputs:
            arrival[net] = CLK_TO_Q
        for name in order:
            factor = rng.lognormvariate(0.0, sigma)
            best = 0.0
            for fanin in fanins[name]:
                t = arrival[fanin]
                if t > best:
                    best = t
            arrival[name] = best + base_delay[name] * factor
        worst = 0.0
        for net in pos:
            worst = max(worst, arrival.get(net, 0.0))
        for net in state_outs:
            worst = max(worst, arrival.get(net, 0.0) + SETUP_TIME)
        samples.append(worst)

    return VariationReport(
        circuit=netlist.name,
        nominal_delay=nominal,
        samples=tuple(samples),
    )

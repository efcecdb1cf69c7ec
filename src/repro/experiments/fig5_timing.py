"""Figure 5(b): the FLH test-application timing diagram.

Replays one complete two-pattern application on an FLH design and
renders the cycle-annotated event sequence -- scan-in of V1 with TC=0,
application of V1, held-state scan of V2, launch and rated-clock
capture -- verifying it against the canonical sequence, and that the
combinational logic never switches while either pattern is scanned.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List

from ..testapp import FIG5B_SEQUENCE, ProtocolTrace, apply_two_pattern
from .common import SEED, styled_designs
from .report import format_table


@dataclass(frozen=True)
class Fig5Result:
    """Protocol trace plus conformance checks."""

    circuit: str
    trace: ProtocolTrace
    matches_canonical: bool
    isolated: bool

    def render(self) -> str:
        """Readable timing diagram."""
        rows: List[Dict[str, object]] = [
            {"cycle": cycle, "event": message}
            for cycle, message in self.trace.events
        ]
        lines = [
            f"Figure 5(b) -- FLH test application timing ({self.circuit})",
            format_table(rows),
            f"canonical sequence: {'YES' if self.matches_canonical else 'NO'}",
            "combinational logic isolated during scan: "
            + ("YES" if self.isolated else "NO"),
        ]
        return "\n".join(lines)


def run(circuit_name: str = "s298", seed: int = SEED) -> Fig5Result:
    """Run one two-pattern application and check the Fig. 5(b) sequence."""
    designs = styled_designs(circuit_name)
    flh = designs["flh"]
    rng = random.Random(seed)
    nets = list(flh.netlist.inputs) + list(flh.netlist.state_inputs)
    v1 = {net: rng.randint(0, 1) for net in nets}
    v2 = {net: rng.randint(0, 1) for net in nets}
    trace = apply_two_pattern(flh, v1, v2)
    return Fig5Result(
        circuit=circuit_name,
        trace=trace,
        matches_canonical=tuple(trace.event_messages()) == FIG5B_SEQUENCE,
        isolated=trace.shift_comb_toggles == 0,
    )

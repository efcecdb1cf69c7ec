"""Two-pattern test application protocols (paper Fig. 5(b)).

:func:`apply_two_pattern` plays the complete enhanced-scan / FLH test
sequence against a DFT design at clock granularity:

1. with TC = 0 (hold active), scan V1's state part into the chain;
2. assert TC = 1: V1 reaches the combinational logic together with its
   primary-input bits, and the circuit stabilizes;
3. de-assert TC: the response to V1 is held (in the hold latches for
   enhanced scan, in the gated first-level gates for FLH) while V2's
   state part is scanned in;
4. launch: assert TC and apply V2's primary inputs -- the transition
   V1 -> V2 races through the logic;
5. capture the response at one rated clock into the flip-flops, then
   the result is scanned out (overlapped with the next V1 scan-in).

Each step is logged as a trace event so the Fig. 5(b) timing diagram can
be regenerated, and the captured response is returned for coverage
work.  Broadside and skewed-load application are provided for the
baseline comparisons; they run on a plain scan design and constrain the
(V1, V2) relationship accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..dft.styles import DftDesign
from ..errors import DftError, SimulationError
from ..power import LogicSimulator
from .scan_chain import ScanChainSimulator


@dataclass
class ProtocolTrace:
    """Cycle-annotated log of one two-pattern test application."""

    style: str
    events: List[Tuple[int, str]] = field(default_factory=list)
    captured_state: Dict[str, int] = field(default_factory=dict)
    observed_outputs: Dict[str, int] = field(default_factory=dict)
    shift_comb_toggles: int = 0
    cycles: int = 0

    def log(self, cycle: int, message: str) -> None:
        """Append an event."""
        self.events.append((cycle, message))

    def event_messages(self) -> List[str]:
        """Event strings in order (for asserting the Fig. 5(b) sequence)."""
        return [message for _, message in self.events]


def _evaluate(design: DftDesign, vector: Mapping[str, int]) -> Dict[str, int]:
    sim = LogicSimulator(design.netlist)
    values = dict(vector)
    sim.eval_combinational(values, mask=1)
    return values


def _state_part(design: DftDesign, vector: Mapping[str, int]) -> Dict[str, int]:
    return {ff: vector[ff] & 1 for ff in design.scan_chain}


def apply_two_pattern(design: DftDesign, v1: Mapping[str, int],
                      v2: Mapping[str, int]) -> ProtocolTrace:
    """Apply an arbitrary (V1, V2) pair via the enhanced-scan/FLH protocol.

    Requires a style supporting arbitrary two-pattern application.  The
    returned trace carries the captured flip-flop state (response to V2)
    and the primary outputs observed at capture time.
    """
    if not design.supports_arbitrary_two_pattern:
        raise DftError(
            f"{design.style!r} cannot apply arbitrary two-pattern tests; "
            "use broadside/skewed-load application instead"
        )
    chain = design.scan_chain
    shifter = ScanChainSimulator(design)
    trace = ProtocolTrace(style=design.style)
    cycle = 0

    # 1. Scan in V1 (TC = 0: combinational logic isolated).
    trace.log(cycle, "TC=0: scan-in V1")
    shift1 = shifter.shift_in(_state_part(design, v1))
    cycle += shift1.cycles
    trace.shift_comb_toggles += shift1.comb_toggles
    trace.log(cycle, "V1 in chain")

    # 2. Apply V1: TC = 1, primary inputs set, circuit stabilizes.
    trace.log(cycle, "TC=1: apply V1 (PI + state)")
    values1 = _evaluate(design, v1)
    cycle += 1
    trace.log(cycle, "V1 response stable, state held")

    # 3. Scan in V2 while V1's response is held (TC = 0).
    trace.log(cycle, "TC=0: scan-in V2, V1 held")
    shift2 = shifter.shift_in(
        _state_part(design, v2), initial_state=shift1.final_state
    )
    cycle += shift2.cycles
    trace.shift_comb_toggles += shift2.comb_toggles
    if shift2.comb_toggles:
        raise SimulationError(
            f"{design.name}: holding failed -- combinational logic "
            f"switched {shift2.comb_toggles} times during V2 scan"
        )
    trace.log(cycle, "V2 in chain")

    # 4. Launch: TC = 1 with V2's primary inputs.
    trace.log(cycle, "TC=1: launch V1->V2 transition")
    values2 = _evaluate(design, v2)
    cycle += 1

    # 5. Capture at the rated clock.
    sim = LogicSimulator(design.netlist)
    captured = {
        ff: values2[data] & 1
        for ff, data in zip(sim.dff_names, sim.dff_data)
    }
    trace.log(cycle, "capture at rated clock")
    trace.captured_state = {ff: captured[ff] for ff in chain}
    trace.observed_outputs = {
        po: values2[po] & 1 for po in design.netlist.outputs
    }
    trace.cycles = cycle
    trace.log(cycle, "scan-out result (overlapped with next V1)")
    return trace


def apply_broadside(design: DftDesign, v1: Mapping[str, int],
                    pi2: Optional[Mapping[str, int]] = None) -> ProtocolTrace:
    """Broadside application on a plain scan design.

    V2's state part is the circuit's response to V1; only V2's primary
    inputs are free.  No holding logic is needed -- and no arbitrary V2
    is possible, which is the coverage limitation the paper starts from.
    """
    chain = design.scan_chain
    shifter = ScanChainSimulator(design)
    trace = ProtocolTrace(style=f"{design.style}/broadside")
    cycle = 0

    trace.log(cycle, "scan-in V1")
    shift1 = shifter.shift_in(_state_part(design, v1))
    cycle += shift1.cycles
    trace.shift_comb_toggles += shift1.comb_toggles

    trace.log(cycle, "apply V1, functional clock (launch)")
    values1 = _evaluate(design, v1)
    sim = LogicSimulator(design.netlist)
    state2 = {
        ff: values1[data] & 1
        for ff, data in zip(sim.dff_names, sim.dff_data)
    }
    cycle += 1

    v2: Dict[str, int] = dict(state2)
    for net in design.netlist.inputs:
        if pi2 is not None and net in pi2:
            v2[net] = pi2[net] & 1
        else:
            v2[net] = v1.get(net, 0) & 1

    trace.log(cycle, "capture at rated clock")
    values2 = _evaluate(design, v2)
    captured = {
        ff: values2[data] & 1
        for ff, data in zip(sim.dff_names, sim.dff_data)
    }
    cycle += 1
    trace.captured_state = {ff: captured[ff] for ff in chain}
    trace.observed_outputs = {
        po: values2[po] & 1 for po in design.netlist.outputs
    }
    trace.cycles = cycle
    trace.log(cycle, "scan-out result")
    return trace


def apply_skewed_load(design: DftDesign, v1: Mapping[str, int],
                      scan_in_bit: int = 0,
                      pi2: Optional[Mapping[str, int]] = None) -> ProtocolTrace:
    """Skewed-load application: V2's state is V1's shifted by one.

    Requires the fast scan-enable the paper mentions as the scheme's
    design cost; here it is just modelled functionally.
    """
    chain = design.scan_chain
    shifter = ScanChainSimulator(design)
    trace = ProtocolTrace(style=f"{design.style}/skewed-load")
    cycle = 0

    trace.log(cycle, "scan-in V1")
    shift1 = shifter.shift_in(_state_part(design, v1))
    cycle += shift1.cycles
    trace.shift_comb_toggles += shift1.comb_toggles

    trace.log(cycle, "last shift launches transition")
    state2: Dict[str, int] = {chain[0]: scan_in_bit & 1}
    for i in range(1, len(chain)):
        state2[chain[i]] = v1[chain[i - 1]] & 1
    cycle += 1

    v2: Dict[str, int] = dict(state2)
    for net in design.netlist.inputs:
        if pi2 is not None and net in pi2:
            v2[net] = pi2[net] & 1
        else:
            v2[net] = v1.get(net, 0) & 1

    trace.log(cycle, "capture at rated clock")
    values2 = _evaluate(design, v2)
    sim = LogicSimulator(design.netlist)
    captured = {
        ff: values2[data] & 1
        for ff, data in zip(sim.dff_names, sim.dff_data)
    }
    cycle += 1
    trace.captured_state = {ff: captured[ff] for ff in chain}
    trace.observed_outputs = {
        po: values2[po] & 1 for po in design.netlist.outputs
    }
    trace.cycles = cycle
    trace.log(cycle, "scan-out result")
    return trace


#: The canonical Fig. 5(b) event sequence for arbitrary two-pattern
#: application (checked by ``python -m repro fig5`` and the tests).
FIG5B_SEQUENCE = (
    "TC=0: scan-in V1",
    "V1 in chain",
    "TC=1: apply V1 (PI + state)",
    "V1 response stable, state held",
    "TC=0: scan-in V2, V1 held",
    "V2 in chain",
    "TC=1: launch V1->V2 transition",
    "capture at rated clock",
    "scan-out result (overlapped with next V1)",
)

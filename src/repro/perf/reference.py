"""Reference (pre-compile) simulator implementations.

These are the dict-per-net simulators the repository shipped before the
flat-array compile pass, kept verbatim in behaviour for two jobs:

* **equivalence testing** -- the compiled kernels must produce
  bit-identical packed words and detection masks on every circuit
  (``tests/fault/test_fsim_equivalence.py``);
* **benchmarking** -- ``python -m repro bench`` times the compiled
  stuck-at fault simulator and three-valued kernel against them.

They are deliberately *not* exported from ``repro.fault`` /
``repro.power``; production code should use the compiled simulators.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import SimulationError
from ..netlist import Netlist, evaluate_gate, fanout_cone, topological_order
from ..power.logicsim import pack_patterns
from ..fault.fsim import FaultSimResult
from ..fault.models import StuckFault
from ..fault.podem import X, eval3


class ReferenceLogicSimulator:
    """Dict-per-net levelized simulator (the pre-compile implementation)."""

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self.order: List[str] = topological_order(netlist)
        self._funcs: List[str] = []
        self._fanins: List[Tuple[str, ...]] = []
        for name in self.order:
            gate = netlist.gate(name)
            self._funcs.append(gate.func)
            self._fanins.append(gate.fanin)
        self.dff_names: List[str] = [g.name for g in netlist.dffs()]
        self.dff_data: List[str] = [g.fanin[0] for g in netlist.dffs()]

    def eval_combinational(self, values: Dict[str, int],
                           mask: int = 1) -> Dict[str, int]:
        """Evaluate the combinational core in place (dict-keyed)."""
        for net in self.netlist.inputs:
            if net not in values:
                raise SimulationError(f"missing value for input {net!r}")
        for net in self.dff_names:
            if net not in values:
                raise SimulationError(f"missing value for state input {net!r}")
        for name, func, fanin in zip(self.order, self._funcs, self._fanins):
            values[name] = evaluate_gate(
                func, tuple(values[f] for f in fanin), mask
            )
        return values


class ReferenceFaultSimulator:
    """Per-fault cone re-simulation over string-keyed dicts."""

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self.sim = ReferenceLogicSimulator(netlist)
        self.observe: Tuple[str, ...] = tuple(netlist.core_outputs)
        self._order_cache: Dict[str, Tuple[str, ...]] = {}

    def _cone_order(self, net: str) -> Tuple[str, ...]:
        cached = self._order_cache.get(net)
        if cached is not None:
            return cached
        cone = fanout_cone(self.netlist, [net])
        order = tuple(name for name in self.sim.order if name in cone)
        self._order_cache[net] = order
        return order

    def good_values(self, patterns: Sequence[Mapping[str, int]],
                    ) -> Tuple[Dict[str, int], int]:
        values, mask = pack_patterns(
            patterns,
            list(self.netlist.inputs) + list(self.netlist.state_inputs),
        )
        self.sim.eval_combinational(values, mask)
        return values, mask

    def output_diffs(self, fault: StuckFault,
                     good: Mapping[str, int], mask: int) -> List[int]:
        """Good/faulty difference per observation point, in ``observe``
        (``core_outputs``) order; all zero for an unexcited fault."""
        if fault.net not in self.netlist:
            raise SimulationError(f"fault site {fault.net!r} not in netlist")
        site_value = mask if fault.value else 0
        excited = good[fault.net] ^ site_value
        if not (excited & mask):
            return [0] * len(self.observe)
        faulty: Dict[str, int] = {fault.net: site_value}
        for name in self._cone_order(fault.net):
            gate = self.netlist.gate(name)
            fanin_vals = tuple(
                faulty.get(f, good[f]) for f in gate.fanin
            )
            faulty[name] = evaluate_gate(gate.func, fanin_vals, mask)
        return [(good[out] ^ faulty.get(out, good[out])) & mask
                for out in self.observe]

    def detect_stuck(self, fault: StuckFault,
                     good: Mapping[str, int], mask: int) -> int:
        detected = 0
        for diff in self.output_diffs(fault, good, mask):
            detected |= diff
        return detected

    def simulate_stuck(self, faults: Sequence[StuckFault],
                       patterns: Sequence[Mapping[str, int]],
                       ) -> FaultSimResult:
        good, mask = self.good_values(patterns)
        detected = {
            fault: self.detect_stuck(fault, good, mask) for fault in faults
        }
        return FaultSimResult(detected=detected, n_patterns=len(patterns))


class ReferenceThreeValuedSimulator:
    """Whole-core dict re-simulation in three-valued (0/1/X) logic.

    This is the implication step PODEM shipped with before the
    event-driven compiled kernels: one scalar :func:`repro.fault.podem.eval3`
    call per gate over string-keyed dicts, re-walking the entire
    combinational core on every input assignment.  Kept as the
    bit-identity oracle for :meth:`repro.netlist.CompiledNetlist.eval3_into`
    and :meth:`~repro.netlist.CompiledNetlist.propagate3`
    (``tests/fault/test_atpg_flow.py``), for both machines of PODEM's
    packed state (``tests/fault/test_podem.py``), and as the slow side
    of the ``eval3`` bench kernel.
    """

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self.order: List[str] = topological_order(netlist)
        self._funcs: List[str] = []
        self._fanins: List[Tuple[str, ...]] = []
        for name in self.order:
            gate = netlist.gate(name)
            self._funcs.append(gate.func)
            self._fanins.append(gate.fanin)
        self.core_inputs: Tuple[str, ...] = tuple(netlist.inputs) + tuple(
            g.name for g in netlist.dffs()
        )

    def simulate(self, assignment: Mapping[str, int],
                 force: Optional[Tuple[str, int]] = None,
                 ) -> Dict[str, int]:
        """Net -> 0/1/X for one (possibly partial) input assignment.

        Inputs absent from ``assignment`` are X; every combinational
        net is filled in by scalar three-valued evaluation.  ``force``
        is an optional ``(net, value)`` that holds one net -- a core
        input or a gate output -- at ``value`` whatever drives it: the
        faulty machine of that net stuck at ``value``.
        """
        values: Dict[str, int] = {net: X for net in self.core_inputs}
        for net, value in assignment.items():
            if net not in values:
                raise SimulationError(f"{net!r} is not a core input")
            values[net] = value
        forced, forced_value = force if force is not None else (None, X)
        if forced in values:
            values[forced] = forced_value
        elif forced is not None and forced not in self.order:
            raise SimulationError(f"{forced!r} is not in the netlist")
        for name, func, fanin in zip(self.order, self._funcs, self._fanins):
            if name == forced:
                values[name] = forced_value
            else:
                values[name] = eval3(func, tuple(values[f] for f in fanin))
        return values

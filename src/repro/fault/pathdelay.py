"""Path-delay fault model.

The paper (Section IV) claims FLH leaves "transition and path delay
fault models" valid.  This module provides the model: enumeration of the
longest structural paths (the ones worth testing at-speed) and the
non-robust two-pattern test condition -- V1/V2 must launch a transition
at the path input that flips *every* net along the path, so the
cumulative path delay is exercised end to end.

Path sensitization is checked by plain two-vector simulation: a pair
non-robustly tests a path iff every on-path net has different values
under V1 and V2 with the transition directions consistent along the
path's gate inversions.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..cells import Library
from ..netlist import Netlist
from ..power.logicsim import LogicSimulator
from ..timing.delay_model import DelayOverlay
from ..timing.sta import timing_state


@dataclass(frozen=True)
class DelayPath:
    """One structural path from a launch point to a capture point."""

    nets: Tuple[str, ...]
    delay: float

    @property
    def launch(self) -> str:
        """Path input (primary input or flip-flop output)."""
        return self.nets[0]

    @property
    def capture(self) -> str:
        """Path output (primary output or flip-flop data net)."""
        return self.nets[-1]

    def __len__(self) -> int:
        return len(self.nets)


def enumerate_critical_paths(netlist: Netlist,
                             library: Optional[Library] = None,
                             overlay: Optional[DelayOverlay] = None,
                             k: int = 10) -> List[DelayPath]:
    """The ``k`` longest register/port-to-register/port paths.

    Backward best-first search over per-net worst suffixes: at each step
    the partial path ending backwards at net ``n`` is extended by the
    fanin with the largest remaining arrival; a bounded beam of partial
    paths yields the top-k without full enumeration.
    """
    timing = timing_state(netlist, library, overlay)
    arrival = timing.arrival
    # Launch points (inputs, flip-flops) carry no gate delay.
    delays = {net: timing.delay.get(net, 0.0) for net in arrival}

    ends = list(netlist.outputs) + list(netlist.state_outputs)
    # Heap of (-path_delay_so_far_plus_arrival_bound, counter, path_nets)
    heap: List[Tuple[float, int, Tuple[str, ...]]] = []
    counter = 0
    for end in dict.fromkeys(ends):
        if end in arrival:
            heapq.heappush(heap, (-arrival[end], counter, (end,)))
            counter += 1

    results: List[DelayPath] = []
    seen_paths = set()
    while heap and len(results) < k:
        bound, _, nets = heapq.heappop(heap)
        head = nets[0]
        gate = netlist.gate(head)
        if gate.is_input or gate.is_dff:
            if nets not in seen_paths:
                seen_paths.add(nets)
                total = sum(delays[n] for n in nets)
                results.append(DelayPath(nets, total))
            continue
        for fanin in dict.fromkeys(gate.fanin):
            new_bound = arrival.get(fanin, 0.0) + sum(
                delays[n] for n in nets
            )
            heapq.heappush(
                heap, (-new_bound, counter, (fanin,) + nets)
            )
            counter += 1
    return results


#: Inverting functions: a transition flips polarity passing through.
_INVERTING = {"NOT", "NAND", "NOR", "XNOR", "AOI21", "AOI22",
              "OAI21", "OAI22"}


def nonrobust_test_ok(netlist: Netlist, path: DelayPath,
                      v1: Mapping[str, int], v2: Mapping[str, int],
                      simulator: Optional[LogicSimulator] = None) -> bool:
    """Non-robust path-delay test check.

    The pair tests the path iff every on-path net switches between V1
    and V2 (the transition travels the whole path) and the transition
    polarity follows the path's inversion parity.
    """
    sim = simulator or LogicSimulator(netlist)
    a = dict(v1)
    b = dict(v2)
    sim.eval_combinational(a, 1)
    sim.eval_combinational(b, 1)
    direction = None
    for net in path.nets:
        if a[net] == b[net]:
            return False
        rising = b[net] > a[net]
        if direction is None:
            direction = rising
            continue
        gate = netlist.gate(net)
        if gate.func in _INVERTING:
            expected: Optional[bool] = not direction
        elif gate.func in ("AND", "OR", "BUF"):
            expected = direction
        else:
            # XOR-family / MUX: polarity depends on the side inputs;
            # any transition continues the path.
            expected = None
        if expected is not None and rising != expected:
            return False
        direction = rising
    return True


#: Controlling value per simple function (None = no controlling value).
_CTRL = {"AND": 0, "NAND": 0, "OR": 1, "NOR": 1}


def robust_test_ok(netlist: Netlist, path: DelayPath,
                   v1: Mapping[str, int], v2: Mapping[str, int],
                   simulator: Optional[LogicSimulator] = None) -> bool:
    """Robust path-delay test check.

    Stronger than :func:`nonrobust_test_ok`: the test must remain valid
    regardless of delays on the *off-path* inputs.  The classic
    condition per on-path simple gate:

    * if the on-path input transitions *to* the controlling value, every
      side input must be steady at the non-controlling value;
    * otherwise the side inputs must hold the non-controlling value in
      V2 (steady or not).

    Gates without a single controlling value (XOR family, MUX) cannot be
    robustly sensitized and fail the check.
    """
    sim = simulator or LogicSimulator(netlist)
    if not nonrobust_test_ok(netlist, path, v1, v2, sim):
        return False
    a = dict(v1)
    b = dict(v2)
    sim.eval_combinational(a, 1)
    sim.eval_combinational(b, 1)
    for on_input, net in zip(path.nets, path.nets[1:]):
        gate = netlist.gate(net)
        if gate.func in ("NOT", "BUF"):
            continue
        ctrl = _CTRL.get(gate.func)
        if ctrl is None:
            return False  # no robust sensitization through XOR/MUX/complex
        to_controlling = b[on_input] == ctrl
        for side in gate.fanin:
            if side == on_input:
                continue
            if b[side] != 1 - ctrl:
                return False
            if to_controlling and a[side] != 1 - ctrl:
                return False  # side input must be *steady* non-controlling
    return True


def path_coverage(netlist: Netlist, paths: Sequence[DelayPath],
                  pairs: Sequence[Tuple[Mapping[str, int], Mapping[str, int]]],
                  ) -> Dict[DelayPath, bool]:
    """Which paths are non-robustly tested by a two-pattern test set."""
    sim = LogicSimulator(netlist)
    covered: Dict[DelayPath, bool] = {}
    for path in paths:
        covered[path] = any(
            nonrobust_test_ok(netlist, path, v1, v2, sim)
            for v1, v2 in pairs
        )
    return covered

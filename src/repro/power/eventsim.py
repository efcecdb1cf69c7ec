"""Event-driven timing simulation with glitch accounting.

The levelized simulator (:mod:`repro.power.logicsim`) is zero-delay: each
net toggles at most once per cycle, so hazard (glitch) power is invisible.
The paper's power numbers come from NanoSim, which sees glitches.  This
module runs a transport-delay event simulation -- every gate evaluates
``gate_delay`` after an input event, and every real output change counts
-- yielding glitch-inclusive switching activity for the power model.

Transport delay propagates all hazards (no inertial filtering), an upper
bound on glitching; the glitch *factor* (timed / zero-delay toggles) is
the quantity of interest and lands in the usual 1.2-2x band.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..cells import Library, default_library
from ..errors import SimulationError
from ..netlist import Netlist, evaluate_gate, topological_order
from ..timing.delay_model import DelayOverlay, gate_delay
from .activity import switching_activity
from .logicsim import LogicSimulator

#: Safety valve: maximum events processed per clock cycle.
MAX_EVENTS_PER_CYCLE = 2_000_000


class TimingSimulator:
    """Transport-delay event simulator for one mapped netlist."""

    def __init__(self, netlist: Netlist,
                 library: Optional[Library] = None,
                 overlay: Optional[DelayOverlay] = None):
        if library is None:
            library = default_library()
        self.netlist = netlist
        self.order = topological_order(netlist)
        self.delay: Dict[str, float] = {
            name: gate_delay(netlist, library, name, overlay)
            for name in self.order
        }
        self._funcs = {
            name: netlist.gate(name).func for name in self.order
        }
        self._fanins = {
            name: netlist.gate(name).fanin for name in self.order
        }
        self._sinks: Dict[str, List[str]] = {}
        for name in self.order:
            for fanin in set(self._fanins[name]):
                self._sinks.setdefault(fanin, []).append(name)

    def settle(self, values: Dict[str, int],
               changed: Sequence[str]) -> Dict[str, int]:
        """Propagate input changes to steady state, counting toggles.

        ``values`` holds the pre-change steady state for every net; the
        nets in ``changed`` already carry their new values.  Returns a
        per-net toggle count (every transient change included).
        """
        toggles: Dict[str, int] = {}
        heap: List[Tuple[float, int, str, int]] = []
        counter = 0

        def schedule(net: str, at: float) -> None:
            nonlocal counter
            func = self._funcs.get(net)
            if func is None:
                return
            new = evaluate_gate(
                func, tuple(values[f] for f in self._fanins[net]), 1
            )
            heapq.heappush(heap, (at, counter, net, new))
            counter += 1

        for net in changed:
            toggles[net] = toggles.get(net, 0) + 1
            for sink in self._sinks.get(net, ()):
                schedule(sink, self.delay[sink])

        events = 0
        while heap:
            events += 1
            if events > MAX_EVENTS_PER_CYCLE:
                raise SimulationError(
                    f"{self.netlist.name}: event explosion "
                    f"(> {MAX_EVENTS_PER_CYCLE} events in one cycle)"
                )
            t, _, net, value = heapq.heappop(heap)
            # Zero-width pulses (several events on one net at the same
            # instant) coalesce to the last-scheduled value -- the
            # degenerate case an inertial gate would swallow.
            while heap and heap[0][0] == t and heap[0][2] == net:
                _, _, _, value = heapq.heappop(heap)
            # Transport delay: the output at t reflects the inputs as of
            # t - d (the scheduling instant).  The last scheduled event
            # always carries the final input state, so the steady state
            # is exact while transient hazards are preserved.
            if values[net] == value:
                continue
            values[net] = value
            toggles[net] = toggles.get(net, 0) + 1
            for sink in self._sinks.get(net, ()):
                schedule(sink, t + self.delay[sink])
        return toggles


def glitch_activity(netlist: Netlist, n_vectors: int = 50,
                    seed: int = 2005,
                    library: Optional[Library] = None,
                    overlay: Optional[DelayOverlay] = None,
                    ) -> Dict[str, float]:
    """Glitch-inclusive toggles/cycle under random vectors.

    Runs the functional sequence with the zero-delay simulator (for the
    state trajectory) and replays each cycle's input change through the
    timing simulator to count transient toggles.
    """
    logic = LogicSimulator(netlist)
    vectors = logic.random_vectors(n_vectors, seed=seed)
    frames = logic.run_sequential(vectors)
    timing = TimingSimulator(netlist, library, overlay)

    totals: Dict[str, float] = {}
    previous = frames[0]
    for frame in frames[1:]:
        values = dict(previous)
        changed = [
            net for net in list(netlist.inputs) + list(netlist.state_inputs)
            if frame[net] != previous[net]
        ]
        for net in changed:
            values[net] = frame[net]
        toggles = timing.settle(values, changed)
        for net, count in toggles.items():
            totals[net] = totals.get(net, 0.0) + count
        previous = frame
    cycles = max(len(frames) - 1, 1)
    return {net: count / cycles for net, count in totals.items()}


@dataclass(frozen=True)
class GlitchReport:
    """Zero-delay vs glitch-inclusive switching activity."""

    circuit: str
    zero_delay_toggles: float      # mean toggles/cycle over all nets
    timed_toggles: float

    @property
    def glitch_factor(self) -> float:
        """Timed over zero-delay toggle ratio (>= 1)."""
        if self.zero_delay_toggles == 0.0:
            return 1.0
        return self.timed_toggles / self.zero_delay_toggles


def glitch_study(netlist: Netlist, n_vectors: int = 50,
                 seed: int = 2005,
                 library: Optional[Library] = None) -> GlitchReport:
    """Measure the glitch factor of a circuit under random vectors."""
    zero = switching_activity(netlist, n_vectors, seed)
    timed = glitch_activity(
        netlist, n_vectors=n_vectors, seed=seed, library=library
    )
    comb = [g.name for g in netlist.combinational_gates()]
    zero_mean = sum(zero.get(n, 0.0) for n in comb) / max(len(comb), 1)
    timed_mean = sum(timed.get(n, 0.0) for n in comb) / max(len(comb), 1)
    return GlitchReport(
        circuit=netlist.name,
        zero_delay_toggles=zero_mean,
        timed_toggles=timed_mean,
    )

"""Clock-accurate scan-chain shift simulation.

Shifting a pattern through the chain toggles every flip-flop output
about half the time; in a conventional scan design all that activity
propagates into the combinational logic and burns power for the entire
scan duration.  Enhanced scan blocks it with the hold latch, and FLH
blocks it with supply gating at the first level -- "equally effective
in completely eliminating redundant switching power in the combinational
logic" (Section IV; cf. Gerstendoerfer & Wunderlich's ~78% test-energy
figure, which this module's measurements reproduce in shape).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from ..dft.styles import DftDesign
from ..errors import SimulationError
from ..power import LogicSimulator
from ..timing.delay_model import load_on_net


#: Styles whose holding element isolates the combinational logic from
#: scan-shift activity.
ISOLATING_STYLES = ("enhanced", "mux", "flh")


@dataclass(frozen=True)
class ShiftTrace:
    """Result of shifting one pattern through the chain."""

    cycles: int
    comb_toggles: int            # toggles of combinational gate outputs
    chain_toggles: int           # toggles of flip-flop outputs
    comb_energy: float           # joules switched in the comb. logic
    final_state: Dict[str, int]  # chain contents after the shift


class ScanChainSimulator:
    """Shift simulator bound to one DFT design and its scan chain."""

    def __init__(self, design: DftDesign):
        if not design.scan_chain:
            raise SimulationError(f"{design.name}: design has no scan chain")
        self.design = design
        self.netlist = design.netlist
        self.sim = LogicSimulator(self.netlist)
        self.isolating = design.style in ISOLATING_STYLES

    # ------------------------------------------------------------------
    def shift_in(self, pattern: Mapping[str, int],
                 initial_state: Optional[Mapping[str, int]] = None,
                 pi_values: Optional[Mapping[str, int]] = None,
                 ) -> ShiftTrace:
        """Shift ``pattern`` (per-flip-flop bits) into the chain.

        The scan-in stream is constructed so that after ``len(chain)``
        shift cycles each flip-flop holds its target bit.  Combinational
        activity is accumulated cycle by cycle unless the style isolates
        the logic (holding elements active / first level gated).
        """
        chain = self.design.scan_chain
        state: Dict[str, int] = {ff: 0 for ff in chain}
        if initial_state:
            state.update({ff: v & 1 for ff, v in initial_state.items()})
        pis = {net: 0 for net in self.netlist.inputs}
        if pi_values:
            pis.update({net: v & 1 for net, v in pi_values.items()})

        cycles = len(chain)
        stream = [pattern[ff] & 1 for ff in reversed(chain)]

        comb_toggles = 0
        chain_toggles = 0
        comb_energy = 0.0
        previous = self._comb_frame(state, pis)

        for cycle in range(cycles):
            new_state = dict(state)
            new_state[chain[0]] = stream[cycle]
            for i in range(1, len(chain)):
                new_state[chain[i]] = state[chain[i - 1]]
            chain_toggles += sum(
                1 for ff in state if new_state[ff] != state[ff]
            )
            state = new_state
            frame = self._comb_frame(state, pis)
            if not self.isolating:
                toggles, energy = self._frame_delta(previous, frame)
                comb_toggles += toggles
                comb_energy += energy
            previous = frame

        return ShiftTrace(
            cycles=cycles,
            comb_toggles=comb_toggles,
            chain_toggles=chain_toggles,
            comb_energy=comb_energy,
            final_state=state,
        )

    # ------------------------------------------------------------------
    def _comb_frame(self, state: Mapping[str, int],
                    pis: Mapping[str, int]) -> Dict[str, int]:
        values: Dict[str, int] = dict(state)
        values.update(pis)
        self.sim.eval_combinational(values, mask=1)
        return values

    def _frame_delta(self, before: Mapping[str, int],
                     after: Mapping[str, int]) -> tuple:
        library = self.design.library
        toggles = 0
        energy = 0.0
        for gate in self.netlist.combinational_gates():
            if before[gate.name] == after[gate.name]:
                continue
            toggles += 1
            if gate.cell is not None:
                cell = library.cell(gate.cell)
                load = load_on_net(self.netlist, library, gate.name)
                energy += cell.switch_energy(load)
        return toggles, energy


@dataclass(frozen=True)
class ShiftPowerStudy:
    """Scan-shift energy with and without combinational isolation."""

    circuit: str
    patterns: int
    comb_energy_plain: float
    comb_energy_isolated: float
    chain_energy: float

    @property
    def test_energy_plain(self) -> float:
        """Total test-mode switching energy without isolation."""
        return self.comb_energy_plain + self.chain_energy

    @property
    def saving_fraction(self) -> float:
        """Fraction of test energy eliminated by isolation.

        Gerstendoerfer & Wunderlich report about 78% on average; the
        exact value depends on the comb/chain energy split.
        """
        total = self.test_energy_plain
        if total == 0.0:
            return 0.0
        return (self.comb_energy_plain - self.comb_energy_isolated) / total


def shift_power_study(plain: DftDesign, isolated: DftDesign,
                      n_patterns: int = 10, seed: int = 2005,
                      ) -> ShiftPowerStudy:
    """Measure scan-shift energy for a plain-scan vs an isolating design.

    Both designs must share the same chain; random patterns are shifted
    through each and the combinational switching energy compared.
    """
    if plain.scan_chain != isolated.scan_chain:
        raise SimulationError("designs must share the same scan chain")
    rng = random.Random(seed)
    chain = plain.scan_chain
    sim_plain = ScanChainSimulator(plain)
    sim_iso = ScanChainSimulator(isolated)

    comb_plain = 0.0
    comb_iso = 0.0
    chain_energy = 0.0
    library = plain.library
    # Average switching energy of one flip-flop output toggle (its cell
    # driving its fanout load), used to price the chain activity.
    per_toggle_total = 0.0
    priced = 0
    for ff in chain:
        gate = plain.netlist.gate(ff)
        if gate.cell is not None:
            cell = library.cell(gate.cell)
            load = load_on_net(plain.netlist, library, ff)
            per_toggle_total += cell.switch_energy(load) + cell.clock_energy()
            priced += 1
    per_toggle = per_toggle_total / max(priced, 1)

    state: Dict[str, int] = {ff: 0 for ff in chain}
    for _ in range(n_patterns):
        pattern = {ff: rng.randint(0, 1) for ff in chain}
        trace_p = sim_plain.shift_in(pattern, initial_state=state)
        trace_i = sim_iso.shift_in(pattern, initial_state=state)
        comb_plain += trace_p.comb_energy
        comb_iso += trace_i.comb_energy
        chain_energy += trace_p.chain_toggles * per_toggle
        state = trace_p.final_state

    return ShiftPowerStudy(
        circuit=plain.name,
        patterns=n_patterns,
        comb_energy_plain=comb_plain,
        comb_energy_isolated=comb_iso,
        chain_energy=chain_energy,
    )

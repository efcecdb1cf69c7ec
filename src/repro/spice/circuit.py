"""Transient circuit container: nodes, devices, capacitors, sources.

A :class:`TransientCircuit` is a flat netlist of MOSFETs and lumped
capacitors.  Nodes are either *driven* (VDD, GND, waveform sources) or
*free* (state variables integrated by :mod:`repro.spice.transient`).
Device parasitics (gate and diffusion capacitance) are added to the node
capacitances automatically, so every free node ends up with a nonzero
capacitance and the explicit integrator stays well-posed.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from .. import units
from ..errors import SimulationError
from .mosfet import Mosfet

Waveform = Callable[[float], float]

VDD_NODE = "vdd"
GND_NODE = "gnd"

#: Extra wiring capacitance hung on every free node.
NODE_WIRE_CAP = 0.1 * units.FF


def step_wave(transitions: Dict[float, float], initial: float = 0.0) -> Waveform:
    """Piecewise-constant waveform from {time: value} transition points."""
    times = sorted(transitions)

    def wave(t: float) -> float:
        value = initial
        for time in times:
            if t >= time:
                value = transitions[time]
            else:
                break
        return value

    return wave


def constant(value: float) -> Waveform:
    """Constant waveform."""
    return lambda t: value


class TransientCircuit:
    """Mutable transient netlist."""

    def __init__(self, name: str = "tb"):
        self.name = name
        self.devices: List[Mosfet] = []
        self.sources: Dict[str, Waveform] = {
            VDD_NODE: constant(units.VDD_70NM),
            GND_NODE: constant(0.0),
        }
        self.extra_cap: Dict[str, float] = {}
        self.initial: Dict[str, float] = {}

    # -- construction -----------------------------------------------------
    def add_device(self, device: Mosfet) -> None:
        """Add a transistor."""
        self.devices.append(device)

    def mosfet(self, name: str, kind: str, drain: str, gate: str,
               source: str, width_in_min: float = 1.0,
               vt_shift: float = 0.0) -> Mosfet:
        """Convenience: build and add a transistor sized in minimum widths.

        PMOS devices automatically get the PN-ratio width multiplier.
        """
        width = width_in_min * units.WMIN_70NM
        if kind == "p":
            width *= units.PN_RATIO
        device = Mosfet(name, kind, drain, gate, source, width, vt_shift)
        self.add_device(device)
        return device

    def inverter(self, name: str, inp: str, out: str,
                 drive: float = 1.0,
                 vdd: str = VDD_NODE, gnd: str = GND_NODE,
                 vt_shift: float = 0.0) -> None:
        """Add a CMOS inverter between supply nodes ``vdd``/``gnd``."""
        self.mosfet(f"{name}_p", "p", out, inp, vdd, drive, vt_shift)
        self.mosfet(f"{name}_n", "n", out, inp, gnd, drive, vt_shift)

    def transmission_gate(self, name: str, a: str, b: str,
                          enable: str, enable_bar: str,
                          drive: float = 1.0,
                          vt_shift: float = 0.0) -> None:
        """Add a TG between nodes ``a`` and ``b``."""
        self.mosfet(f"{name}_n", "n", a, enable, b, drive, vt_shift)
        self.mosfet(f"{name}_p", "p", a, enable_bar, b, drive, vt_shift)

    def drive(self, node: str, waveform: Waveform) -> None:
        """Make ``node`` an ideal source following ``waveform``."""
        self.sources[node] = waveform

    def add_cap(self, node: str, farads: float) -> None:
        """Add explicit capacitance on a node."""
        self.extra_cap[node] = self.extra_cap.get(node, 0.0) + farads

    def set_initial(self, node: str, volts: float) -> None:
        """Initial condition for a free node (default 0 V)."""
        self.initial[node] = volts

    # -- derived ---------------------------------------------------------
    def free_nodes(self) -> List[str]:
        """Nodes integrated by the transient solver."""
        nodes = set()
        for device in self.devices:
            nodes.update((device.drain, device.gate, device.source))
        return sorted(nodes - set(self.sources))

    def node_caps(self) -> Dict[str, float]:
        """Capacitance of every free node (parasitics + explicit)."""
        caps: Dict[str, float] = {
            node: NODE_WIRE_CAP + self.extra_cap.get(node, 0.0)
            for node in self.free_nodes()
        }
        for device in self.devices:
            gate_c = units.CGATE_PER_WIDTH * device.width
            diff_c = units.CDIFF_PER_WIDTH * device.width
            if device.gate in caps:
                caps[device.gate] += gate_c
            if device.drain in caps:
                caps[device.drain] += diff_c
            if device.source in caps:
                caps[device.source] += diff_c
        return caps

    def check(self) -> None:
        """Sanity-check the netlist before simulation."""
        if not self.devices:
            raise SimulationError(f"{self.name}: empty circuit")
        for node in self.initial:
            if node in self.sources:
                raise SimulationError(
                    f"{self.name}: {node!r} is driven; initial condition "
                    "is meaningless"
                )

"""Cell delay and load model used by static timing analysis.

The delay of a gate driving its fanout is the classic lumped-RC form::

    d = d_intrinsic + (R_drive + R_extra) * (C_parasitic + C_load + C_extra)

``R_extra`` and ``C_extra`` are per-net overlays supplied by the DFT
transforms: FLH inserts supply-gating transistors in series with the
first-level gates (extra resistance) and hangs its keeper on their
outputs (extra capacitance); the hold-latch and MUX schemes instead
appear as real cells in the netlist and need no overlay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from .. import units
from ..cells import Library
from ..errors import TimingError
from ..netlist import Netlist

#: Wire capacitance charged per fanout connection (short local route).
WIRE_CAP_PER_FANOUT = 0.2 * units.FF

#: Clock-to-Q delay charged at every flip-flop output.
CLK_TO_Q = 25.0 * units.PS

#: Setup time charged at every flip-flop data input.
SETUP_TIME = 15.0 * units.PS


@dataclass
class DelayOverlay:
    """Per-net electrical modifications applied on top of the cell model.

    Attributes
    ----------
    extra_resistance:
        Series ohms added to the driver of a net (FLH gating devices).
    extra_load:
        Farads added to a net (FLH keeper TG diffusion + inverter gate).
    """

    extra_resistance: Dict[str, float] = field(default_factory=dict)
    extra_load: Dict[str, float] = field(default_factory=dict)

    def merged_with(self, other: "DelayOverlay") -> "DelayOverlay":
        """Combine two overlays (sums per net)."""
        merged = DelayOverlay(dict(self.extra_resistance), dict(self.extra_load))
        for net, r in other.extra_resistance.items():
            merged.extra_resistance[net] = merged.extra_resistance.get(net, 0.0) + r
        for net, c in other.extra_load.items():
            merged.extra_load[net] = merged.extra_load.get(net, 0.0) + c
        return merged


def cell_of(netlist: Netlist, library: Library, net: str):
    """The library cell bound to the driver of ``net`` (None for inputs)."""
    gate = netlist.gate(net)
    if gate.is_input:
        return None
    if gate.cell is None:
        raise TimingError(
            f"{netlist.name}: gate {net!r} is not technology-mapped"
        )
    return library.cell(gate.cell)


def load_on_net(netlist: Netlist, library: Library, net: str,
                overlay: Optional[DelayOverlay] = None) -> float:
    """Total capacitive load on ``net`` in farads.

    Sums the input capacitance of every sink cell (multiplicity counted:
    a gate taking the net on two pins loads it twice), wire capacitance
    per connection, and any overlay capacitance.  Sinks are summed in
    name order, so the float result does not depend on set iteration
    order (and hence not on ``PYTHONHASHSEED`` or a netlist's edit
    history).
    """
    total = 0.0
    connections = 0
    for sink_name in sorted(netlist.fanout(net)):
        sink = netlist.gate(sink_name)
        multiplicity = sum(1 for f in sink.fanin if f == net)
        connections += multiplicity
        if sink.is_dff:
            cell = library.cell(sink.cell) if sink.cell else None
            pin_cap = cell.input_cap if cell else 0.5 * units.FF
        else:
            cell = library.cell(sink.cell) if sink.cell else None
            if cell is None:
                raise TimingError(
                    f"{netlist.name}: sink {sink_name!r} is not mapped"
                )
            pin_cap = cell.input_cap
        total += multiplicity * pin_cap
    total += connections * WIRE_CAP_PER_FANOUT
    if overlay is not None:
        total += overlay.extra_load.get(net, 0.0)
    return total


def gate_delay(netlist: Netlist, library: Library, net: str,
               overlay: Optional[DelayOverlay] = None) -> float:
    """Propagation delay of the driver of ``net``, seconds."""
    cell = cell_of(netlist, library, net)
    if cell is None:
        return 0.0
    load = load_on_net(netlist, library, net, overlay)
    resistance = cell.drive_resistance
    if overlay is not None:
        resistance += overlay.extra_resistance.get(net, 0.0)
    return cell.intrinsic_delay + resistance * (cell.output_cap + load)

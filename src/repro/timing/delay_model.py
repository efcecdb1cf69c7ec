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
from ..netlist import Gate, Netlist

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


def _pin_cap(netlist: Netlist, library: Library, sink: Gate) -> float:
    """Input capacitance one pin of ``sink`` puts on the net it reads.

    A flip-flop without a cell binding counts as 0.5 fF; any other
    unmapped sink is an error.
    """
    cell = library.cell(sink.cell) if sink.cell else None
    if cell is not None:
        return cell.input_cap
    if sink.is_dff:
        return 0.5 * units.FF
    raise TimingError(f"{netlist.name}: sink {sink.name!r} is not mapped")


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
        multiplicity = sink.fanin.count(net)
        connections += multiplicity
        total += multiplicity * _pin_cap(netlist, library, sink)
    total += connections * WIRE_CAP_PER_FANOUT
    if overlay is not None:
        total += overlay.extra_load.get(net, 0.0)
    return total


def net_loads(netlist: Netlist, library: Library,
              overlay: Optional[DelayOverlay] = None) -> Dict[str, float]:
    """:func:`load_on_net` of every driven net, in a dict the caller owns.

    The loads without an overlay come from one sweep per netlist revision
    and library, kept in ``netlist.memo()``; an overlay's extra
    capacitance is added to them afterwards, as :func:`load_on_net` adds
    it last, so every load is the same float either way.
    """
    loads = _shared_loads(netlist, library)
    if overlay is None:
        return dict(loads)
    extra = overlay.extra_load
    return {net: load + extra.get(net, 0.0) for net, load in loads.items()}


def _shared_loads(netlist: Netlist, library: Library) -> Dict[str, float]:
    """The overlay-free :func:`net_loads`, kept in ``netlist.memo()``.

    Shared by every caller until the netlist is next edited: read it,
    never write to it.
    """
    memo = netlist.memo()
    key = ("net_loads", library)
    loads = memo.get(key)
    if loads is None:
        loads = memo[key] = _sweep_loads(netlist, library)
    return loads


def _sweep_loads(netlist: Netlist, library: Library) -> Dict[str, float]:
    """Every driven net's overlay-free load, from one sweep.

    The sweep visits the sinks in name order, so each net's pin
    capacitances are added in the order :func:`load_on_net` adds them
    and every load is the same float.
    """
    gates = dict(zip(netlist.gate_names(), netlist.gates()))
    caps: Dict[str, float] = {}
    pins: Dict[str, float] = {}
    connections: Dict[str, int] = {}
    for name in sorted(gates):
        sink = gates[name]
        fanin = sink.fanin
        if not fanin:
            continue
        cap = caps.get(sink.cell) if sink.cell else None
        if cap is None:
            cap = caps[sink.cell] = _pin_cap(netlist, library, sink)
        # Distinct pins, the common case, add ``cap`` itself: the same
        # float as ``1 * cap``, without counting each pin (without this
        # branch the ``tables`` benchmark operation ran about 5% slower).
        if len(fanin) == 1 or len(set(fanin)) == len(fanin):
            for net in fanin:
                pins[net] = pins.get(net, 0.0) + cap
                connections[net] = connections.get(net, 0) + 1
            continue
        for net in dict.fromkeys(fanin):
            multiplicity = fanin.count(net)
            pins[net] = pins.get(net, 0.0) + multiplicity * cap
            connections[net] = connections.get(net, 0) + multiplicity
    wire = WIRE_CAP_PER_FANOUT
    return {
        net: pins.get(net, 0.0) + connections.get(net, 0) * wire
        for net in gates
    }


def gate_delay(netlist: Netlist, library: Library, net: str,
               overlay: Optional[DelayOverlay] = None) -> float:
    """Propagation delay of the driver of ``net``, seconds."""
    cell = cell_of(netlist, library, net)
    if cell is None:
        return 0.0
    return _rc_delay(cell, net, load_on_net(netlist, library, net, overlay),
                     overlay)


def _rc_delay(cell, net: str, load: float,
              overlay: Optional[DelayOverlay]) -> float:
    """The lumped-RC delay of ``cell`` driving ``net`` with ``load``."""
    resistance = cell.drive_resistance
    if overlay is not None:
        resistance += overlay.extra_resistance.get(net, 0.0)
    return cell.intrinsic_delay + resistance * (cell.output_cap + load)

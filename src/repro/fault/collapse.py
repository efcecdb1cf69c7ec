"""Structural fault collapsing.

Equivalence collapsing over inverters and buffers: a stuck-at fault at
the input of a NOT/BUF is indistinguishable from the corresponding
fault at its output, so single-fanout chains keep only the stem fault.
This is the standard cheap collapse; it shrinks the fault list (and the
ATPG effort) without touching coverage semantics.

Dominance collapsing (``dominance_collapse_*``) goes one step further:
fault *F dominates G* when every test for G also detects F, so F can be
dropped once G is targeted.  Under the net/stem fault model used here
the rule reads: a gate-output fault is droppable when a single-fanout,
non-observable input net carries the matching fault (see
:func:`dominance_collapse_stuck` for the exact value relation).  Unlike
equivalence collapse this changes which faults ATPG *targets*, not
which are *counted* -- coverage is still reported over the full
(equivalence-collapsed) list, which is why the two-phase flow in
:mod:`repro.fault.atpg_flow` uses the dominance-kept set only to order
phase-2 targets.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..errors import NetlistError
from ..netlist import Netlist
from .models import FALL, RISE, StuckFault, TransitionFault


def _root(netlist: Netlist, net: str, value: int,
          observed: Set[str]) -> Tuple[str, int]:
    """Chase a (net, stuck value) through single-fanout NOT/BUF sinks.

    If the only sink of ``net`` is an inverter or buffer, the fault is
    equivalent to one at that sink's output; iterate to the stem.  The
    chase stops at a net in ``observed`` (the core outputs, built once
    per public call).
    """
    current, polarity = net, value
    seen: Set[str] = set()
    while True:
        if current in seen:
            return current, polarity
        seen.add(current)
        sinks = [
            s for s in netlist.fanout(current)
            if netlist.gate(s).is_combinational
        ]
        if len(sinks) != 1:
            return current, polarity
        sink = netlist.gate(sinks[0])
        if sink.func == "BUF" and sink.n_inputs == 1:
            current = sink.name
        elif sink.func == "NOT":
            current, polarity = sink.name, 1 - polarity
        else:
            return current, polarity
        if current in observed:
            return current, polarity


def collapse_stuck(netlist: Netlist,
                   faults: List[StuckFault]) -> List[StuckFault]:
    """Equivalence-collapse a stuck-at fault list."""
    observed = set(netlist.core_outputs)
    kept: Dict[Tuple[str, int], StuckFault] = {}
    for fault in faults:
        root = _root(netlist, fault.net, fault.value, observed)
        if root not in kept:
            kept[root] = StuckFault(*root)
    return sorted(kept.values())


def collapse_transition(netlist: Netlist,
                        faults: List[TransitionFault]) -> List[TransitionFault]:
    """Equivalence-collapse a transition fault list.

    slow-to-rise maps through an inverter to slow-to-fall downstream,
    mirroring the stuck-at rule on the late value.
    """
    observed = set(netlist.core_outputs)
    kept: Dict[Tuple[str, str], TransitionFault] = {}
    for fault in faults:
        stuck_value = fault.initial_value
        net, value = _root(netlist, fault.net, stuck_value, observed)
        direction = "rise" if value == 0 else "fall"
        key = (net, direction)
        if key not in kept:
            kept[key] = TransitionFault(net, direction)
    return sorted(kept.values())


# ----------------------------------------------------------------------
# Dominance collapse
# ----------------------------------------------------------------------

#: Gate functions where every test for an input-net fault forces a fixed
#: fault effect at the gate output (all other inputs non-controlling),
#: mapped to the polarity inversion between the input and output fault
#: values.  XOR/XNOR/MUX2 are excluded: the output effect polarity there
#: depends on the other inputs, so no single output fault is dominated.
_DOMINANCE_INV = {
    "AND": 0, "OR": 0,
    "NAND": 1, "NOR": 1,
    "AOI21": 1, "AOI22": 1, "OAI21": 1, "OAI22": 1,
}

#: Transition-fault dominance: func -> (input direction, output
#: direction).  Only valid where the input's V1 initial value is the
#: gate's controlling value, which *forces* the output's initial value
#: regardless of the other inputs -- i.e. only one direction per gate,
#: and only for plain AND/NAND/OR/NOR (AOI/OAI inputs never force the
#: output on their own).
_TRANSITION_DOMINANCE = {
    "AND": (RISE, RISE),
    "NAND": (RISE, FALL),
    "OR": (FALL, FALL),
    "NOR": (FALL, RISE),
}


def _hidden_inputs(netlist: Netlist, gate_name: str,
                   observed: Set[str]) -> List[str]:
    """Fanin nets of ``gate_name`` whose *only* observation path is
    through that gate: exactly one sink (the gate itself -- DFF sinks
    would make the net scan-observable) and not in ``observed`` (the
    core outputs, built once per public call)."""
    hidden = []
    for x in dict.fromkeys(netlist.gate(gate_name).fanin):
        if x in observed:
            continue
        if netlist.fanout(x) != {gate_name}:
            continue
        hidden.append(x)
    return hidden


def dominance_collapse_stuck(netlist: Netlist,
                             faults: List[StuckFault]) -> List[StuckFault]:
    """Dominance-collapse a stuck-at fault list.

    Drops a gate-output fault ``(y, v)`` when some fanin net ``x`` of
    ``y``'s gate (a) has that gate as its only sink, (b) is not itself
    a core output, and (c) carries the fault ``(x, v ^ inv)`` in the
    input list, where ``inv`` is the gate's output inversion: every
    test for the input fault excites it with all other inputs
    non-controlling and propagates the effect through ``y``, so it
    detects ``(y, v)`` too.  Dominance is transitive by test-set
    containment, so membership is checked against the *original* list
    -- a chain of drops always bottoms out at a kept fault.

    Input order is preserved (the result is a filtered view, so a
    sorted list stays sorted).
    """
    present = {(f.net, f.value) for f in faults}
    observed = set(netlist.core_outputs)
    dropped: Set[StuckFault] = set()
    for fault in faults:
        try:
            gate = netlist.gate(fault.net)
        except NetlistError:
            continue
        inv = _DOMINANCE_INV.get(gate.func)
        if inv is None:
            continue
        wanted = fault.value ^ inv
        for x in _hidden_inputs(netlist, fault.net, observed):
            if (x, wanted) in present:
                dropped.add(fault)
                break
    if not dropped:
        return list(faults)
    return [f for f in faults if f not in dropped]


def dominance_collapse_transition(
        netlist: Netlist,
        faults: List[TransitionFault]) -> List[TransitionFault]:
    """Dominance-collapse a transition fault list.

    A two-pattern test for a slow-to-rise fault on an AND-gate input
    ``x`` sets ``x = 0`` at V1 -- forcing the output to 0 regardless of
    the other inputs -- and detects ``x`` stuck-at-0 at V2, which (by
    the stuck-at dominance argument) also detects the output stuck-at-0.
    Together that is exactly a test for the output's slow-to-rise
    fault, so the output fault is dropped.  The dual rules cover
    NAND/OR/NOR; no other gate type lets a single input force the
    output's V1 value, so nothing else is droppable.  Same structural
    conditions and same transitivity argument as
    :func:`dominance_collapse_stuck`.
    """
    present = {(f.net, f.direction) for f in faults}
    observed = set(netlist.core_outputs)
    dropped: Set[TransitionFault] = set()
    for fault in faults:
        try:
            gate = netlist.gate(fault.net)
        except NetlistError:
            continue
        rule = _TRANSITION_DOMINANCE.get(gate.func)
        if rule is None or fault.direction != rule[1]:
            continue
        in_dir = rule[0]
        for x in _hidden_inputs(netlist, fault.net, observed):
            if (x, in_dir) in present:
                dropped.add(fault)
                break
    if not dropped:
        return list(faults)
    return [f for f in faults if f not in dropped]

"""A netlist's memo never outlives the contents it was derived from.

:meth:`Netlist.memo` keeps three analyses of a netlist's current
contents: the compile key (``compile_netlist``), the overlay-free net
loads (``net_loads``) and the overlay-free timing records
(``timing_state``), the last two per library.  A family of netlists --
mapped s27 and a small generated circuit, built by hand, then copies of
them -- takes random steps through every mutator, a ``name`` assignment
and ``copy()`` on either side.  After each step every netlist the step
touched must give, through its memo, what a from-scratch derivation
gives:

- the compile key equals ``content_hash``;
- the loads, with and without an overlay, equal ``load_on_net`` net by
  net;
- every field of its timing under two libraries equals a pass over a
  hand-built netlist with the same records (whose memo is empty).

A copy starts with an empty memo, and its source keeps its entries.
Callers own what ``analyze`` and ``net_loads`` hand them.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import CATALOG, generate, load_circuit
from repro.cells import Library, default_library
from repro.netlist import (
    Gate,
    Netlist,
    compile_netlist,
    content_hash,
    fanout_cone,
)
from repro.obs import Recorder, use_recorder
from repro.synth import map_netlist
from repro.timing import DelayOverlay, analyze, timing_state
from repro.timing.delay_model import load_on_net, net_loads

#: The default library, and one whose pins load twice as much and whose
#: cells are twice as slow: an entry kept for one must not serve the
#: other.
LIBRARIES = (
    default_library(),
    Library("doubled", [
        dataclasses.replace(cell, transistors=cell.transistors * 2,
                            intrinsic_delay=2 * cell.intrinsic_delay)
        for cell in default_library()
    ]),
)
BASES = (
    map_netlist(load_circuit("s27")),
    map_netlist(generate(dataclasses.replace(CATALOG["s208"],
                                             name="memo208"))),
)
TIMING_FIELDS = ("delay", "arrival", "critical_delay", "worst_net",
                 "order", "_rank", "_gates")
KINDS = ("add_input", "add_output", "add_gate", "add", "remove_gate",
         "replace_gate", "rewire_pin", "redirect_fanout", "rename", "copy")


def rebuilt(netlist):
    """A netlist built by hand with ``netlist``'s records, in its order."""
    fresh = Netlist(netlist.name)
    for gate in netlist.gates():
        if gate.is_input:
            fresh.add_input(gate.name)
        else:
            fresh.add_gate(gate)
    for net in netlist.outputs:
        fresh.add_output(net)
    return fresh


def assert_memo_exact(netlist):
    """Every memoized analysis of ``netlist`` equals a from-scratch one
    (and, called first, fills the memo for the next edit to drop)."""
    assert compile_netlist(netlist).key == content_hash(netlist)
    nets = list(netlist.gate_names())
    overlay = DelayOverlay(extra_load={net: 0.3e-15 for net in nets[::3]})
    for library in LIBRARIES:
        for extra in (None, overlay):
            assert net_loads(netlist, library, extra) == {
                net: load_on_net(netlist, library, net, extra)
                for net in nets
            }
        state = timing_state(netlist, library)
        fresh = timing_state(rebuilt(netlist), library)
        for field in TIMING_FIELDS:
            assert getattr(state, field) == getattr(fresh, field), field


def other_drive(cell):
    """The same cell at another drive strength, e.g. NAND2_X1 -> _X2."""
    stem, drive = cell.rsplit("_X", 1)
    swapped = f"{stem}_X{'2' if drive == '1' else '1'}"
    return swapped if swapped in LIBRARIES[0] else cell


def step(netlist, kind, pick, fresh):
    """One edit of ``netlist`` in place (``copy`` is the caller's)."""
    names = sorted(netlist.gate_names())
    comb = sorted(g.name for g in netlist.combinational_gates())
    outputs = set(netlist.outputs)
    if kind == "add_input":
        netlist.add_input(fresh)
    elif kind == "add_output":
        free = [name for name in comb if name not in outputs]
        if free:
            netlist.add_output(free[pick % len(free)])
    elif kind == "add_gate":
        fanin = (names[pick % len(names)], names[(pick >> 6) % len(names)])
        netlist.add_gate(Gate(fresh, "NAND", fanin, "NAND2_X1"))
    elif kind == "add":
        netlist.add(fresh, "DFF", (names[pick % len(names)],), "DFF_X1")
    elif kind == "remove_gate":
        free = [name for name in names
                if not netlist.fanout_count(name) and name not in outputs
                and not netlist.gate(name).is_input]
        if free:
            netlist.remove_gate(free[pick % len(free)])
    elif kind == "replace_gate":
        # A new cell on the same pins: the fanin-unchanged path.
        gate = netlist.gate(comb[pick % len(comb)])
        netlist.replace_gate(gate.with_cell(other_drive(gate.cell)))
    elif kind == "rewire_pin":
        sink = comb[pick % len(comb)]
        blocked = fanout_cone(netlist, [sink]) | {sink}
        sources = [name for name in names if name not in blocked]
        pin = (pick >> 6) % netlist.gate(sink).n_inputs
        netlist.rewire_pin(sink, pin, sources[(pick >> 3) % len(sources)])
    elif kind == "redirect_fanout":
        # Buffer a net: its sinks move onto a new BUF that reads it.
        driven = [name for name in names if netlist.fanout_count(name)]
        net = driven[pick % len(driven)]
        sinks = netlist.fanout(net)
        netlist.add(fresh, "BUF", (net,), "BUF_X1")
        assert netlist.redirect_fanout(net, fresh, only=sinks) >= len(sinks)
    elif kind == "rename":
        netlist.name = f"{netlist.name}r"


@settings(max_examples=25, deadline=None)
@given(base=st.sampled_from(range(len(BASES))),
       steps=st.lists(st.tuples(st.sampled_from(KINDS),
                                st.integers(0, 7),
                                st.integers(0, 1 << 16)),
                      min_size=1, max_size=8))
def test_memo_matches_scratch_after_every_step(base, steps):
    family = [rebuilt(BASES[base])]
    assert_memo_exact(family[0])
    for i, (kind, member, pick) in enumerate(steps):
        netlist = family[member % len(family)]
        if kind == "copy":
            entries = dict(netlist.memo())
            copy = netlist.copy(f"{netlist.name}c" if pick % 2 else None)
            assert copy.memo() == {}
            assert netlist.memo().keys() == entries.keys()
            assert all(netlist.memo()[key] is value
                       for key, value in entries.items())
            family.append(copy)
            assert_memo_exact(copy)
        else:
            step(netlist, kind, pick, netlist.fresh_net(f"m{i}"))
        assert_memo_exact(netlist)
    for netlist in family:
        assert_memo_exact(netlist)


@pytest.fixture
def s27_timed():
    return rebuilt(BASES[0])


def test_timing_is_shared_until_an_edit(s27_timed):
    netlist = s27_timed
    library, doubled = LIBRARIES
    rec = Recorder()
    with use_recorder(rec):
        first = timing_state(netlist, library)
        again = timing_state(netlist, library)
        assert rec.counter("sta.timing_shared") == 1
        assert again is not first and again.arrival is first.arrival
        # Another library, or an overlay, is timed on its own.
        timing_state(netlist, doubled)
        timing_state(netlist, library, DelayOverlay())
        assert rec.counter("sta.timing_shared") == 1
        gate = next(iter(netlist.combinational_gates()))
        netlist.replace_gate(gate.with_cell(other_drive(gate.cell)))
        edited = timing_state(netlist, library)
        assert rec.counter("sta.timing_shared") == 1
        assert edited.delay != first.delay


def test_callers_own_reports_and_loads(s27_timed):
    netlist = s27_timed
    library = LIBRARIES[0]
    report = analyze(netlist, library)
    arrival = dict(report.arrival)
    loads = net_loads(netlist, library)
    expected = dict(loads)
    for net in arrival:
        report.arrival[net] = -1.0
    loads.clear()
    assert analyze(netlist, library).arrival == arrival
    assert timing_state(netlist, library).arrival == arrival
    assert net_loads(netlist, library) == expected

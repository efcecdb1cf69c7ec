"""Incremental re-timing against from-scratch timing.

:meth:`TimingState.retimed` must agree *exactly* (``==``, no tolerance)
with :func:`timing_state` run on the edited netlist: every delay, every
arrival and the critical delay.  The edits are the Section V
optimizer's own (buffer one flip-flop's fanout, or insert a buffer pair
and fold inverters) plus the pin rewire they are built from, applied to
copies that are randomly kept or dropped, as
:func:`repro.dft.optimize_fanout` does.  Each edited copy is re-timed
from its edit record, and the same records are re-timed again as a copy
of the copy and as a hand-built netlist, which carry no record.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import load_circuit
from repro.dft import insert_scan
from repro.dft.fanout_opt import _optimize_one_ff
from repro.netlist import Gate, Netlist, fanout_cone, first_level_gates
from repro.synth import map_netlist
from repro.synth.resynth import (
    collapse_double_inverters,
    insert_buffer_pair,
    prune_dangling,
)
from repro.timing import DelayOverlay, timing_state

CATALOG = ("s27", "s298", "s382")
NARY = ["AND", "NAND", "OR", "NOR", "XOR", "XNOR"]


def assert_matches_scratch(state):
    fresh = timing_state(state.netlist, state.library, state.overlay)
    assert state.delay == fresh.delay
    assert state.arrival == fresh.arrival
    assert state.critical_delay == fresh.critical_delay
    assert state.worst_net == fresh.worst_net
    period = fresh.critical_delay
    assert state.slacks(period) == fresh.slacks(period)


def apply_edit(netlist, library, kind, pick):
    """One edit on ``netlist`` (a copy), in place."""
    if kind == 0:
        ffs = sorted(netlist.state_inputs)
        _optimize_one_ff(netlist, ffs[pick % len(ffs)], library)
    elif kind == 1:
        nets = sorted(n for n in netlist.gate_names() if netlist.fanout(n))
        inv1, inv2 = insert_buffer_pair(netlist, nets[pick % len(nets)],
                                        library=library)
        collapse_double_inverters(netlist, inv1, inv2)
    else:
        # Move one pin to a gate outside the sink's fanout cone: the old
        # driver loses load, the new one gains it, neither is edited.
        # Pruning what drives nothing then unloads their drivers too.
        gates = sorted(g.name for g in netlist.combinational_gates())
        sink = gates[pick % len(gates)]
        blocked = fanout_cone(netlist, [sink]) | {sink}
        sources = [g for g in gates if g not in blocked]
        if sources:
            pin = pick % netlist.gate(sink).n_inputs
            netlist.rewire_pin(sink, pin, sources[pick % len(sources)])
            prune_dangling(netlist)


def rebuilt(netlist):
    """A netlist built by hand with ``netlist``'s records."""
    fresh = Netlist(netlist.name)
    for net in netlist.inputs:
        fresh.add_input(net)
    for gate in netlist.gates():
        if not gate.is_input:
            fresh.add_gate(gate)
    for net in netlist.outputs:
        fresh.add_output(net)
    return fresh


def run_steps(design, steps, overlay=None):
    """Edit copies step by step, keeping or dropping each; check all."""
    netlist, library = design.netlist, design.library
    state = timing_state(netlist, library, overlay)
    for kind, pick, keep in steps:
        before = (dict(state.delay), dict(state.arrival))
        trial = netlist.copy()
        apply_edit(trial, library, kind, pick)
        revision = netlist.revision()
        assert trial.edits_since(revision) is not None
        retimed = state.retimed(trial)
        assert_matches_scratch(retimed)
        # A copy of the copy and a hand-built twin carry no record
        # against the timed netlist: both are timed from scratch.
        for other in (trial.copy(), rebuilt(trial)):
            assert other.edits_since(revision) is None
            assert_matches_scratch(state.retimed(other))
        # Re-timing a copy never touches the state it started from.
        assert (state.delay, state.arrival) == before
        if keep:
            netlist, state = trial, retimed


@st.composite
def scan_design(draw):
    """A small mapped scan design whose flip-flops fan out widely."""
    n_inputs = draw(st.integers(1, 3))
    n_ffs = draw(st.integers(1, 4))
    n_gates = draw(st.integers(n_ffs + 2, 16))
    netlist = Netlist("rand_timing")
    ffs = [f"ff{i}" for i in range(n_ffs)]
    nets = [f"i{i}" for i in range(n_inputs)]
    for net in nets:
        netlist.add_input(net)
    nets += ffs + ffs  # flip-flop outputs twice as likely as fanin
    gates = []
    for g in range(n_gates):
        func = draw(st.sampled_from(NARY + ["NOT", "NOT", "BUF"]))
        arity = 1 if func in ("NOT", "BUF") else draw(st.integers(2, 3))
        fanin = [draw(st.sampled_from(nets)) for _ in range(arity)]
        netlist.add(f"g{g}", func, fanin)
        nets.append(f"g{g}")
        gates.append(f"g{g}")
    for i, ff in enumerate(ffs):
        # Now and then a flip-flop feeds the next one's data pin.
        if i and draw(st.booleans()) and draw(st.booleans()):
            netlist.add(ff, "DFF", (ffs[i - 1],))
        else:
            netlist.add(ff, "DFF", (draw(st.sampled_from(gates)),))
    netlist.add_output(gates[-1])
    for name in gates:
        if not netlist.fanout(name) and name not in netlist.outputs:
            netlist.add_output(name)
    return insert_scan(map_netlist(netlist))


edit_steps = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 10**6), st.booleans()),
    min_size=1, max_size=6,
)


def flh_like_overlay(design):
    """Extra resistance and keeper load on every first-level gate."""
    targets = first_level_gates(design.netlist)
    return DelayOverlay(
        extra_resistance={net: 2.0e3 for net in targets},
        extra_load={net: 0.4e-15 for net in targets},
    )


@given(design=scan_design(), steps=edit_steps, with_overlay=st.booleans())
@settings(max_examples=60, deadline=None)
def test_generated_designs(design, steps, with_overlay):
    overlay = flh_like_overlay(design) if with_overlay else None
    run_steps(design, steps, overlay)


@pytest.fixture(scope="module")
def catalog_designs():
    return {
        name: insert_scan(map_netlist(load_circuit(name)))
        for name in CATALOG
    }


@given(name=st.sampled_from(CATALOG), steps=edit_steps)
@settings(max_examples=25, deadline=None)
def test_catalog_designs(catalog_designs, name, steps):
    run_steps(catalog_designs[name], steps)


# ---------------------------------------------------------------------------
# hand-built corners no catalog circuit has
# ---------------------------------------------------------------------------
def _scan(build):
    netlist = Netlist("corner")
    netlist.add_input("a")
    netlist.add_input("b")
    build(netlist)
    return insert_scan(map_netlist(netlist))


def _retime(design, edit):
    state = timing_state(design.netlist, design.library)
    trial = design.netlist.copy()
    edit(trial, design.library)
    retimed = state.retimed(trial)
    assert_matches_scratch(retimed)
    return trial, retimed


def test_flip_flop_feeding_a_flip_flop_moves_an_endpoint():
    def build(n):
        n.add("q1", "DFF", ("d1",))
        n.add("q2", "DFF", ("q1",))
        n.add("g1", "NAND", ("q1", "a"))
        n.add("g2", "NOR", ("q1", "b"))
        n.add("d1", "NAND", ("g1", "q2"))
        n.add("y", "NOR", ("g2", "g1"))
        n.add_output("y")

    design = _scan(build)
    trial, _ = _retime(
        design, lambda n, lib: _optimize_one_ff(n, "q1", lib)
    )
    assert "q1" in design.netlist.state_outputs
    assert "q1" not in trial.state_outputs


def test_all_inverter_sinks_remove_the_reused_inverter():
    def build(n):
        n.add("q", "DFF", ("d",))
        n.add("n1", "NOT", ("q",))
        n.add("n2", "NOT", ("q",))
        n.add("g", "NAND", ("n1", "a"))
        n.add("h", "NOR", ("n2", "b"))
        n.add("d", "NAND", ("g", "h"))
        n.add_output("h")

    design = _scan(build)
    trial, _ = _retime(design, lambda n, lib: _optimize_one_ff(n, "q", lib))
    assert "n1" not in trial and "n2" not in trial


def test_folded_inverter_sinks_load_the_first_inverter():
    def build(n):
        n.add("q", "DFF", ("d",))
        n.add("x", "NAND", ("q", "a"))
        n.add("nx", "NOT", ("x",))
        n.add("g", "NOR", ("x", "b"))
        n.add("h", "NAND", ("nx", "b"))
        n.add("k", "NOR", ("nx", "a"))
        n.add("d", "NAND", ("g", "h", "k"))
        n.add_output("k")

    def edit(n, lib):
        inv1, inv2 = insert_buffer_pair(n, "x", library=lib)
        collapse_double_inverters(n, inv1, inv2)

    design = _scan(build)
    trial, retimed = _retime(design, edit)
    assert "nx" not in trial
    assert trial.fanout("x_n") == {"x_p", "h", "k"}
    assert retimed.delay["x_n"] > timing_state(
        design.netlist, design.library
    ).delay["nx"]


def test_dropped_trial_then_same_fresh_names():
    def build(n):
        n.add("q", "DFF", ("d",))
        n.add("g1", "NAND", ("q", "a"))
        n.add("g2", "NOR", ("q", "b"))
        n.add("g3", "AND", ("q", "g1"))
        n.add("d", "NAND", ("g2", "g3"))
        n.add_output("g3")

    design = _scan(build)
    state = timing_state(design.netlist, design.library)
    first = design.netlist.copy()
    insert_buffer_pair(first, "q", library=design.library)
    assert_matches_scratch(state.retimed(first))  # then dropped
    second = design.netlist.copy()
    names = insert_buffer_pair(second, "q", sinks={"g2"},
                               library=design.library)
    assert names == ("q_n", "q_p")
    assert first.fanout("q_p") != second.fanout("q_p")
    assert_matches_scratch(state.retimed(second))


def test_gate_turned_into_a_primary_input():
    def build(n):
        n.add("q", "DFF", ("d",))
        n.add("g1", "NAND", ("q", "a"))
        n.add("g2", "NOR", ("g1", "b"))
        n.add("d", "NAND", ("g2", "q"))
        n.add_output("g2")

    def edit(n, lib):
        n.replace_gate(Gate("g1", "INPUT"))

    design = _scan(build)
    trial, retimed = _retime(design, edit)
    assert retimed.arrival["g1"] == 0.0
    assert "g1" not in retimed.delay

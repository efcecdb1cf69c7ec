"""Hypothesis property-based tests on core data structures/invariants."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.netlist import Gate, Netlist, evaluate_gate, levelize, topological_order
from repro.power import pack_patterns, unpack_word

NARY = ["AND", "NAND", "OR", "NOR", "XOR", "XNOR"]

REFERENCE = {
    "AND": lambda bits: int(all(bits)),
    "NAND": lambda bits: int(not all(bits)),
    "OR": lambda bits: int(any(bits)),
    "NOR": lambda bits: int(not any(bits)),
    "XOR": lambda bits: sum(bits) % 2,
    "XNOR": lambda bits: 1 - sum(bits) % 2,
}


@given(
    func=st.sampled_from(NARY),
    bits=st.lists(st.integers(0, 1), min_size=1, max_size=6),
)
def test_evaluate_gate_matches_reference(func, bits):
    got = evaluate_gate(func, tuple(bits), mask=1)
    assert got == REFERENCE[func](bits)


@given(
    func=st.sampled_from(NARY),
    patterns=st.lists(
        st.lists(st.integers(0, 1), min_size=3, max_size=3),
        min_size=1,
        max_size=40,
    ),
)
def test_bit_parallel_equals_per_pattern(func, patterns):
    """Packed evaluation must equal pattern-by-pattern evaluation."""
    mask = (1 << len(patterns)) - 1
    words = [0, 0, 0]
    for i, bits in enumerate(patterns):
        for j in range(3):
            words[j] |= bits[j] << i
    packed = evaluate_gate(func, tuple(words), mask)
    for i, bits in enumerate(patterns):
        assert (packed >> i) & 1 == REFERENCE[func](bits)


@given(
    values=st.lists(st.integers(0, 1), min_size=1, max_size=64),
)
def test_pack_unpack_roundtrip(values):
    patterns = [{"n": v} for v in values]
    packed, mask = pack_patterns(patterns, ["n"])
    assert unpack_word(packed["n"], len(values)) == values
    assert packed["n"] & ~mask == 0


@st.composite
def random_dag_netlist(draw):
    """A random layered acyclic netlist."""
    n_inputs = draw(st.integers(1, 4))
    n_gates = draw(st.integers(1, 15))
    netlist = Netlist("random")
    nets = []
    for i in range(n_inputs):
        netlist.add_input(f"i{i}")
        nets.append(f"i{i}")
    for g in range(n_gates):
        func = draw(st.sampled_from(NARY + ["NOT", "BUF"]))
        if func in ("NOT", "BUF"):
            fanin = [draw(st.sampled_from(nets))]
        else:
            k = draw(st.integers(1, min(3, len(nets))))
            fanin = draw(
                st.lists(
                    st.sampled_from(nets), min_size=k, max_size=k
                )
            )
        name = f"g{g}"
        netlist.add(name, func, fanin)
        nets.append(name)
    netlist.add_output(nets[-1])
    return netlist


@given(random_dag_netlist())
@settings(max_examples=60)
def test_topological_order_is_consistent(netlist):
    order = topological_order(netlist)
    assert len(order) == netlist.n_gates()
    position = {name: i for i, name in enumerate(order)}
    for name in order:
        for fanin in netlist.gate(name).fanin:
            if netlist.gate(fanin).is_combinational:
                assert position[fanin] < position[name]


@given(random_dag_netlist())
@settings(max_examples=60)
def test_levelize_is_one_plus_max_fanin(netlist):
    levels = levelize(netlist)
    for gate in netlist.combinational_gates():
        assert levels[gate.name] == 1 + max(
            levels[f] for f in gate.fanin
        )


@given(random_dag_netlist())
@settings(max_examples=30)
def test_copy_equals_original(netlist):
    clone = netlist.copy()
    assert sorted(clone.gate_names()) == sorted(netlist.gate_names())
    for gate in netlist.gates():
        assert clone.gate(gate.name).fanin == gate.fanin
    for net in netlist.gate_names():
        assert clone.fanout(net) == netlist.fanout(net)


@given(st.floats(0.1, 10.0), st.floats(0.1, 10.0))
def test_transistor_area_scaling(w_factor, scale):
    from repro.cells import nmos

    t = nmos(w_factor)
    scaled = nmos(w_factor * scale)
    assert math.isclose(scaled.area, t.area * scale)
    assert math.isclose(
        scaled.on_resistance * scale, t.on_resistance, rel_tol=1e-9
    )


@given(st.floats(0.5, 16.0))
def test_gating_resistance_positive_decreasing(width):
    from repro.dft import gating_resistance

    r = gating_resistance(width)
    assert r > 0
    assert gating_resistance(width * 2) < r

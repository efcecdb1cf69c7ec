"""Hypothesis strategies shared by the fault-simulation tests."""

from hypothesis import strategies as st

from repro.netlist import Netlist, validate

NARY = ["AND", "NAND", "OR", "NOR", "XOR", "XNOR"]
#: Fixed-arity cells (the mapper's AOI/OAI gates and the scan mux).
COMPLEX = {"AOI21": 3, "AOI22": 4, "OAI21": 3, "OAI22": 4, "MUX2": 3}


@st.composite
def comb_netlist(draw):
    """Random combinational netlist (mirrors the ATPG property tests,
    plus the fixed-arity complex cells, so every opcode is drawn)."""
    n_inputs = draw(st.integers(2, 4))
    n_gates = draw(st.integers(2, 12))
    netlist = Netlist("wide_rand")
    nets = []
    for i in range(n_inputs):
        netlist.add_input(f"i{i}")
        nets.append(f"i{i}")
    gates = []
    for g in range(n_gates):
        func = draw(st.sampled_from(NARY + ["NOT", "BUF"] + sorted(COMPLEX)))
        if func in ("NOT", "BUF"):
            fanin = [draw(st.sampled_from(nets))]
        else:
            k = COMPLEX.get(func) or draw(st.integers(2, 3))
            fanin = [draw(st.sampled_from(nets)) for _ in range(k)]
        name = f"g{g}"
        netlist.add(name, func, fanin)
        nets.append(name)
        gates.append(name)
    netlist.add_output(gates[-1])
    for name in gates:
        if not netlist.fanout(name) and name not in netlist.outputs:
            netlist.add_output(name)
    validate(netlist)
    return netlist

"""Tests for netlist graph algorithms."""

import pytest

from repro.errors import NetlistError
from repro.netlist import (
    Netlist,
    fanout_cone,
    first_level_gates,
    gate_level_order,
    is_acyclic,
    levelize,
    logic_depth,
    reached_outputs,
    topological_order,
    total_state_fanout,
    transitive_fanin,
)


@pytest.fixture
def chain():
    """a -> g1 -> g2 -> g3 (inverter chain)."""
    n = Netlist("chain")
    n.add_input("a")
    n.add("g1", "NOT", ("a",))
    n.add("g2", "NOT", ("g1",))
    n.add("g3", "NOT", ("g2",))
    n.add_output("g3")
    return n


class TestTopologicalOrder:
    def test_chain_order(self, chain):
        assert topological_order(chain) == ["g1", "g2", "g3"]

    def test_s27_order_is_consistent(self, s27_netlist):
        order = topological_order(s27_netlist)
        position = {name: i for i, name in enumerate(order)}
        for name in order:
            gate = s27_netlist.gate(name)
            for f in gate.fanin:
                if s27_netlist.gate(f).is_combinational:
                    assert position[f] < position[name]

    def test_cycle_detected(self):
        n = Netlist("loop")
        n.add_input("a")
        n.add("g1", "AND", ("a", "g2"))
        n.add("g2", "NOT", ("g1",))
        n.add_output("g2")
        with pytest.raises(NetlistError):
            topological_order(n)
        assert not is_acyclic(n)

    def test_duplicate_fanin_handled(self):
        n = Netlist("dup")
        n.add_input("a")
        n.add("g1", "NOT", ("a",))
        n.add("g2", "AND", ("g1", "g1"))
        n.add_output("g2")
        assert topological_order(n) == ["g1", "g2"]

    def test_dff_cycle_is_fine(self, s27_netlist):
        # s27 has feedback through DFFs only.
        assert is_acyclic(s27_netlist)


class TestLevelize:
    def test_chain_levels(self, chain):
        levels = levelize(chain)
        assert levels["a"] == 0
        assert levels["g1"] == 1
        assert levels["g3"] == 3

    def test_logic_depth(self, chain):
        assert logic_depth(chain) == 3

    def test_gate_level_order_groups(self, chain):
        groups = gate_level_order(chain)
        assert groups == [["g1"], ["g2"], ["g3"]]

    def test_depth_of_s27(self, s27_netlist):
        assert logic_depth(s27_netlist) == 6


class TestCones:
    def test_transitive_fanin(self, s27_netlist):
        cone = transitive_fanin(s27_netlist, ["G17"])
        assert "G11" in cone
        assert "G5" in cone  # stops at the DFF output

    def test_fanout_cone(self, chain):
        assert fanout_cone(chain, ["g1"]) == {"g2", "g3"}
        assert fanout_cone(chain, ["g3"]) == set()

    def test_reached_outputs(self, chain):
        assert reached_outputs(chain, "g1") == {"g3"}


class TestPathsThrough:
    def test_chain_centrality(self, chain):
        from repro.netlist.graph import paths_through

        fin, fout = paths_through(chain, "g2")
        assert fin == 3   # g2, g1, a
        assert fout == 1  # g3

    def test_endpoints(self, chain):
        from repro.netlist.graph import paths_through

        fin_a, fout_a = paths_through(chain, "a")
        assert fin_a == 1
        assert fout_a == 3


class TestFirstLevel:
    def test_s27_first_level(self, s27_netlist):
        # G5 -> G11; G6 -> G8; G7 -> G12.
        assert first_level_gates(s27_netlist) == ["G11", "G12", "G8"]

    def test_total_state_fanout_s27(self, s27_netlist):
        assert total_state_fanout(s27_netlist) == 3

    def test_shared_first_level_counted_once(self):
        n = Netlist("shared")
        n.add_input("a")
        n.add("f1", "DFF", ("g",))
        n.add("f2", "DFF", ("g",))
        n.add("g", "AND", ("f1", "f2", "a"))
        n.add_output("g")
        assert first_level_gates(n) == ["g"]
        assert total_state_fanout(n) == 2

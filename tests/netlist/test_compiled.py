"""Tests for the flat-array compile pass (repro.netlist.compiled)."""

import random

import pytest

from repro.bench import load_circuit, s27
from repro.errors import NetlistError
from repro.netlist import (
    CompiledNetlist,
    Netlist,
    clear_compile_cache,
    compile_cache_info,
    compile_netlist,
    content_hash,
    topological_order,
)
from repro.perf.reference import ReferenceLogicSimulator


class TestContentHash:
    def test_stable_across_recompile(self, s27_netlist):
        assert content_hash(s27_netlist) == content_hash(s27_netlist)

    def test_equal_for_identical_construction(self):
        def build():
            n = Netlist("t")
            n.add_input("a")
            n.add_input("b")
            n.add("y", "NAND", ("a", "b"))
            n.add_output("y")
            return n

        assert content_hash(build()) == content_hash(build())

    def test_changes_on_mutation(self, s27_netlist):
        before = content_hash(s27_netlist)
        s27_netlist.add("extra", "NOT", ("G0",))
        assert content_hash(s27_netlist) != before

    def test_sensitive_to_gate_function(self):
        a = Netlist("t")
        a.add_input("x")
        a.add("y", "BUF", ("x",))
        a.add_output("y")
        b = Netlist("t")
        b.add_input("x")
        b.add("y", "NOT", ("x",))
        b.add_output("y")
        assert content_hash(a) != content_hash(b)


class TestCompileCache:
    def test_cache_hit_same_content(self, s27_netlist):
        clear_compile_cache()
        a = compile_netlist(s27_netlist)
        b = compile_netlist(s27_netlist)
        assert a is b
        assert compile_cache_info()["hits"] >= 1

    def test_mutation_misses_cache(self, s27_netlist):
        clear_compile_cache()
        a = compile_netlist(s27_netlist)
        s27_netlist.add("extra", "NOT", ("G0",))
        b = compile_netlist(s27_netlist)
        assert b is not a
        assert "extra" in b.index

    def test_use_cache_false_bypasses(self, s27_netlist):
        clear_compile_cache()
        a = compile_netlist(s27_netlist)
        b = compile_netlist(s27_netlist, use_cache=False)
        assert b is not a

    def test_clear_cache(self, s27_netlist):
        compile_netlist(s27_netlist)
        clear_compile_cache()
        assert compile_cache_info()["entries"] == 0


class TestLayout:
    def test_prefix_then_topo_order(self, s27_netlist):
        comp = compile_netlist(s27_netlist)
        n_in = len(s27_netlist.inputs)
        n_state = len(s27_netlist.state_inputs)
        assert comp.n_prefix == n_in + n_state
        assert comp.names[:n_in] == tuple(s27_netlist.inputs)
        assert tuple(comp.names[comp.n_prefix:]) == tuple(
            topological_order(s27_netlist)
        )

    def test_fanin_indices_resolve_names(self, s27_netlist):
        comp = compile_netlist(s27_netlist)
        for pos, fanin in enumerate(comp.fanins):
            name = comp.names[comp.n_prefix + pos]
            gate = s27_netlist.gate(name)
            assert tuple(comp.names[i] for i in fanin) == gate.fanin

    def test_dangling_fanin_rejected(self):
        n = Netlist("bad")
        n.add_input("a")
        n.add("y", "NOT", ("ghost",))
        n.add_output("y")
        with pytest.raises(NetlistError):
            CompiledNetlist(n)


class TestEvalEquivalence:
    @pytest.mark.parametrize("name", ["s27", "s298", "s344", "s641"])
    def test_eval_matches_reference(self, name):
        netlist = s27() if name == "s27" else load_circuit(name)
        comp = compile_netlist(netlist)
        ref = ReferenceLogicSimulator(netlist)
        rng = random.Random(99)
        nets = list(netlist.inputs) + list(netlist.state_inputs)
        mask = (1 << 32) - 1
        values = {net: rng.getrandbits(32) for net in nets}

        arr = comp.new_values()
        for i in range(comp.n_prefix):
            arr[i] = values[comp.names[i]]
        comp.eval_into(arr, mask)

        ref_values = dict(values)
        ref.eval_combinational(ref_values, mask)
        for i, net in enumerate(comp.names):
            assert arr[i] == ref_values[net], net

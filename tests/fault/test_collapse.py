"""Tests for fault collapsing."""

import hashlib

from repro.bench import load_circuit
from repro.fault import (
    FaultSimulator,
    StuckFault,
    TransitionFault,
    all_stuck_faults,
    all_transition_faults,
    collapse_stuck,
    collapse_transition,
    dominance_collapse_stuck,
    dominance_collapse_transition,
    generate_tests,
)
from repro.netlist import Netlist


def inverter_chain():
    n = Netlist("chain")
    n.add_input("a")
    n.add("g1", "NOT", ("a",))
    n.add("g2", "NOT", ("g1",))
    n.add("g3", "BUF", ("g2",))
    n.add_output("g3")
    return n


class TestCollapseStuck:
    def test_chain_collapses_to_stem(self):
        n = inverter_chain()
        collapsed = collapse_stuck(n, all_stuck_faults(n))
        # Everything folds onto g3's two faults.
        assert set(collapsed) == {StuckFault("g3", 0), StuckFault("g3", 1)}

    def test_polarity_flips_through_inverter(self):
        n = inverter_chain()
        collapsed = collapse_stuck(n, [StuckFault("a", 0)])
        # a/sa0 -> g1/sa1 -> g2/sa0 -> g3/sa0.
        assert collapsed == [StuckFault("g3", 0)]

    def test_multi_fanout_blocks_collapse(self):
        n = Netlist("fan")
        n.add_input("a")
        n.add("g1", "NOT", ("a",))
        n.add("g2", "NOT", ("g1",))
        n.add("g3", "NAND", ("g1", "a"))
        n.add_output("g2")
        n.add_output("g3")
        collapsed = collapse_stuck(n, [StuckFault("g1", 0)])
        assert collapsed == [StuckFault("g1", 0)]

    def test_s27_collapse_shrinks(self, s27_netlist):
        full = all_stuck_faults(s27_netlist)
        collapsed = collapse_stuck(s27_netlist, full)
        assert len(collapsed) < len(full)
        assert len(set(collapsed)) == len(collapsed)

    def test_idempotent(self, s27_netlist):
        once = collapse_stuck(s27_netlist, all_stuck_faults(s27_netlist))
        twice = collapse_stuck(s27_netlist, once)
        assert once == twice


def and_gate():
    n = Netlist("and2")
    n.add_input("a")
    n.add_input("b")
    n.add("y", "AND", ("a", "b"))
    n.add_output("y")
    return n


class TestDominanceStuck:
    def test_and_output_dominated_by_input(self):
        n = and_gate()
        faults = [StuckFault("a", 0), StuckFault("y", 0)]
        # Any test for a/sa0 sets a=1, b=1 (b non-controlling to
        # propagate) and observes y -- which is exactly a y/sa0 test.
        assert dominance_collapse_stuck(n, faults) == [StuckFault("a", 0)]

    def test_output_kept_without_input_fault(self):
        n = and_gate()
        faults = [StuckFault("y", 0), StuckFault("y", 1)]
        assert dominance_collapse_stuck(n, faults) == faults

    def test_inversion_through_nand(self):
        n = Netlist("nand2")
        n.add_input("a")
        n.add_input("b")
        n.add("y", "NAND", ("a", "b"))
        n.add_output("y")
        # a/sa0 forces y to 1: it dominates y/sa1, not y/sa0.
        faults = [StuckFault("a", 0), StuckFault("y", 0), StuckFault("y", 1)]
        assert dominance_collapse_stuck(n, faults) == [
            StuckFault("a", 0), StuckFault("y", 0)
        ]

    def test_observable_input_blocks_drop(self):
        n = and_gate()
        n.add_output("a")  # a is now directly observable
        faults = [StuckFault("a", 0), StuckFault("y", 0)]
        assert dominance_collapse_stuck(n, faults) == faults

    def test_multi_fanout_input_blocks_drop(self):
        n = Netlist("fan")
        n.add_input("a")
        n.add_input("b")
        n.add("y", "AND", ("a", "b"))
        n.add("z", "NOT", ("a",))
        n.add_output("y")
        n.add_output("z")
        # a has a second observation path through z: a test for a/sa0
        # may propagate only via z and miss y entirely.
        faults = [StuckFault("a", 0), StuckFault("y", 0)]
        assert dominance_collapse_stuck(n, faults) == faults

    def test_xor_never_dropped(self):
        n = Netlist("xor2")
        n.add_input("a")
        n.add_input("b")
        n.add("y", "XOR", ("a", "b"))
        n.add_output("y")
        faults = [StuckFault("a", 0), StuckFault("y", 0), StuckFault("y", 1)]
        assert dominance_collapse_stuck(n, faults) == faults

    def test_rule_validity_on_s27(self, s27_netlist):
        """Soundness property: tests generated for the dominance-kept
        list alone must still detect every collapsed fault."""
        full = collapse_stuck(s27_netlist, all_stuck_faults(s27_netlist))
        kept = dominance_collapse_stuck(s27_netlist, full)
        assert len(kept) < len(full)
        results = generate_tests(s27_netlist, kept)
        tests = [r.test for r in results if r.detected]
        sim = FaultSimulator(s27_netlist)
        replay = sim.simulate_stuck(full, tests)
        assert replay.coverage == 1.0

    def test_preserves_input_order(self, s298_netlist):
        full = collapse_stuck(s298_netlist, all_stuck_faults(s298_netlist))
        kept = dominance_collapse_stuck(s298_netlist, full)
        assert kept == sorted(kept)
        assert set(kept) <= set(full)


class TestDominanceTransition:
    def test_and_rise_dominated(self):
        n = and_gate()
        faults = [TransitionFault("a", "rise"), TransitionFault("y", "rise")]
        # V1 of a slow-to-rise test at a sets a=0, forcing y=0 at V1;
        # V2 detects a/sa0 which (stuck dominance) detects y/sa0.
        assert dominance_collapse_transition(n, faults) == [
            TransitionFault("a", "rise")
        ]

    def test_and_fall_never_dropped(self):
        n = and_gate()
        # a=1 at V1 does NOT force y's initial value (depends on b), so
        # slow-to-fall at y is not dominated.
        faults = [TransitionFault("a", "fall"), TransitionFault("y", "fall")]
        assert dominance_collapse_transition(n, faults) == faults

    def test_nand_direction_flips(self):
        n = Netlist("nand2")
        n.add_input("a")
        n.add_input("b")
        n.add("y", "NAND", ("a", "b"))
        n.add_output("y")
        faults = [
            TransitionFault("a", "rise"),
            TransitionFault("y", "rise"),
            TransitionFault("y", "fall"),
        ]
        # a: 0->1 forces y: 1->? i.e. dominates slow-to-fall at y.
        assert dominance_collapse_transition(n, faults) == [
            TransitionFault("a", "rise"), TransitionFault("y", "rise")
        ]

    def test_rule_validity_on_s27(self, s27_netlist):
        """Every dropped transition fault is detected by the two-pattern
        test set of the kept list (checked by simulation)."""
        from repro.fault import TransitionAtpg

        full = collapse_transition(
            s27_netlist, all_transition_faults(s27_netlist)
        )
        kept = dominance_collapse_transition(s27_netlist, full)
        assert len(kept) < len(full)
        atpg = TransitionAtpg(s27_netlist)
        kept_result = atpg.generate(kept, style="arbitrary")
        pairs = [(t.v1, t.v2) for t in kept_result.tests]
        sim = FaultSimulator(s27_netlist)
        replay = sim.simulate_transition(full, pairs)
        dropped = [f for f in full if f not in set(kept)]
        for fault in dropped:
            assert replay.detected[fault], str(fault)


class TestCollapseTransition:
    def test_direction_flips_through_inverter(self):
        n = inverter_chain()
        collapsed = collapse_transition(
            n, [TransitionFault("a", "rise")]
        )
        # slow-to-rise at a == initial 0 == sa0 path == g3 sa0 == rise.
        assert collapsed == [TransitionFault("g3", "rise")]

    def test_s27_counts(self, s27_netlist):
        full = all_transition_faults(s27_netlist)
        collapsed = collapse_transition(s27_netlist, full)
        stuck = collapse_stuck(s27_netlist, all_stuck_faults(s27_netlist))
        assert len(collapsed) == len(stuck)


class TestPinnedLists:
    """All four collapsed s5378 lists, pinned by length and digest.

    s5378's 179 flip-flops put many core outputs on the NOT/BUF chases
    and the hidden-input checks, so a change to either rule moves a
    digest.
    """

    #: list -> (length, SHA-256 of the faults' ``str`` forms, one a line).
    S5378 = {
        "stuck": (
            5770,
            "a083a4c180d3547cdc0a8614f05b7ee6003d835a12bd1b20adc5c67325882d12",
        ),
        "dominance_stuck": (
            4234,
            "a04be29659060354e5c4255b63e67a781c59de5eca49e0e234bf3c81fb9c2b78",
        ),
        "transition": (
            5770,
            "a73692db85be58dcab61e50322a425f661f96e0fd50671be8eb6d82b68651ff4",
        ),
        "dominance_transition": (
            5002,
            "450a67285efccd8929cd9a5078ae47b7bacd035051478194021ad6081d78431f",
        ),
    }

    def test_s5378_lists_are_pinned(self):
        netlist = load_circuit("s5378")
        stuck = collapse_stuck(netlist, all_stuck_faults(netlist))
        transition = collapse_transition(
            netlist, all_transition_faults(netlist)
        )
        lists = {
            "stuck": stuck,
            "dominance_stuck": dominance_collapse_stuck(netlist, stuck),
            "transition": transition,
            "dominance_transition": dominance_collapse_transition(
                netlist, transition),
        }
        got = {
            name: (len(faults), hashlib.sha256(
                "\n".join(map(str, faults)).encode()).hexdigest())
            for name, faults in lists.items()
        }
        assert got == self.S5378

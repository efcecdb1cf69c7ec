"""Tests for PODEM test generation."""

import random

import pytest

from repro.bench import load_circuit
from repro.fault import (
    FaultSimulator,
    Podem,
    StuckFault,
    all_stuck_faults,
    collapse_stuck,
    eval3,
    generate_tests,
    justify,
)
from repro.fault.podem import X
from repro.netlist import Netlist
from repro.perf.reference import ReferenceThreeValuedSimulator
from repro.synth import map_netlist


class TestEval3:
    def test_and_with_x(self):
        assert eval3("AND", (0, X)) == 0      # controlling wins
        assert eval3("AND", (1, X)) == X
        assert eval3("AND", (1, 1)) == 1

    def test_or_with_x(self):
        assert eval3("OR", (1, X)) == 1
        assert eval3("OR", (0, X)) == X

    def test_nand_nor(self):
        assert eval3("NAND", (0, X)) == 1
        assert eval3("NOR", (1, X)) == 0

    def test_xor_with_x(self):
        assert eval3("XOR", (1, X)) == X
        assert eval3("XOR", (1, 0)) == 1

    def test_not_buf(self):
        assert eval3("NOT", (X,)) == X
        assert eval3("NOT", (0,)) == 1
        assert eval3("BUF", (X,)) == X

    def test_mux_with_known_equal_data(self):
        assert eval3("MUX2", (X, 1, 1)) == 1
        assert eval3("MUX2", (X, 1, 0)) == X
        assert eval3("MUX2", (0, 1, 0)) == 1

    def test_complex_gates(self):
        assert eval3("AOI21", (1, 1, X)) == 0
        assert eval3("AOI21", (0, X, 0)) == 1  # AND arm killed by the 0
        assert eval3("AOI21", (1, X, 0)) == X
        assert eval3("OAI21", (0, 0, X)) == 1


class TestPodemS27:
    def test_full_coverage(self, s27_netlist):
        faults = collapse_stuck(s27_netlist, all_stuck_faults(s27_netlist))
        results = generate_tests(s27_netlist, faults)
        assert all(r.detected for r in results)

    def test_every_test_verifies(self, s27_netlist):
        faults = collapse_stuck(s27_netlist, all_stuck_faults(s27_netlist))
        sim = FaultSimulator(s27_netlist)
        for result in generate_tests(s27_netlist, faults):
            check = sim.simulate_stuck([result.fault], [result.test])
            assert check.detected[result.fault], str(result.fault)

    def test_tests_assign_all_inputs(self, s27_netlist):
        fault = StuckFault("G11", 0)
        result = Podem(s27_netlist).generate(fault)
        assert result.detected
        assert set(result.test) == set(s27_netlist.core_inputs)


class TestUntestable:
    def test_redundant_fault_proven(self):
        # y = OR(a, NOT(a)) == 1 always: y/sa1 is undetectable.
        n = Netlist("redundant")
        n.add_input("a")
        n.add("an", "NOT", ("a",))
        n.add("y", "OR", ("a", "an"))
        n.add_output("y")
        result = Podem(n).generate(StuckFault("y", 1))
        assert result.status == "untestable"

    def test_constant_zero_sa0_untestable(self):
        n = Netlist("const")
        n.add_input("a")
        n.add("an", "NOT", ("a",))
        n.add("y", "AND", ("a", "an"))  # always 0
        n.add_output("y")
        result = Podem(n).generate(StuckFault("y", 0))
        assert result.status == "untestable"
        # But sa1 is testable (any input works).
        assert Podem(n).generate(StuckFault("y", 1)).detected


class TestAborted:
    """Backtrack exhaustion yields "aborted", never a wrong answer."""

    @staticmethod
    def needs_backtrack():
        # y = AND(XOR(a, b), a): the backtrace's first guess for the
        # XOR objective conflicts with the AND's side input, forcing
        # exactly one backtrack before y/sa0 is detected.
        n = Netlist("needs_backtrack")
        n.add_input("a")
        n.add_input("b")
        n.add("x", "XOR", ("a", "b"))
        n.add("y", "AND", ("x", "a"))
        n.add_output("y")
        return n

    def test_exhaustion_aborts(self):
        n = self.needs_backtrack()
        result = Podem(n, backtrack_limit=0).generate(StuckFault("y", 0))
        assert result.status == "aborted"
        assert not result.detected
        assert result.test is None
        assert result.backtracks == 1

    def test_one_more_backtrack_detects(self):
        n = self.needs_backtrack()
        result = Podem(n, backtrack_limit=1).generate(StuckFault("y", 0))
        assert result.detected
        assert result.test == {"a": 1, "b": 0}

    def test_abort_leaves_engine_reusable(self):
        """A shared engine must not leak state from an aborted run."""
        n = self.needs_backtrack()
        engine = Podem(n, backtrack_limit=0)
        assert engine.generate(StuckFault("y", 0)).status == "aborted"
        # An easy fault on the same engine still succeeds afterwards.
        easy = engine.generate(StuckFault("y", 1))
        assert easy.detected

    def test_starved_s298_aborts_some_but_verifies_rest(self, s298_netlist):
        faults = collapse_stuck(
            s298_netlist, all_stuck_faults(s298_netlist)
        )[::8]
        results = generate_tests(s298_netlist, faults, backtrack_limit=0)
        statuses = {r.status for r in results}
        assert "aborted" in statuses
        sim = FaultSimulator(s298_netlist)
        for r in results:
            if r.detected:
                check = sim.simulate_stuck([r.fault], [r.test])
                assert check.detected[r.fault], str(r.fault)


class TestJustify:
    def test_justify_both_values(self, s27_netlist):
        from repro.power import LogicSimulator

        for net in ("G11", "G9", "G15", "G8"):
            for value in (0, 1):
                vec = justify(s27_netlist, net, value)
                assert vec is not None, f"{net}={value}"
                values = dict(vec)
                LogicSimulator(s27_netlist).eval_combinational(values, 1)
                assert values[net] == value

    def test_justify_impossible_returns_none(self):
        n = Netlist("const")
        n.add_input("a")
        n.add("an", "NOT", ("a",))
        n.add("y", "AND", ("a", "an"))
        n.add_output("y")
        assert justify(n, "y", 1) is None

    def test_justify_input_directly(self, s27_netlist):
        vec = justify(s27_netlist, "G0", 1)
        assert vec is not None and vec["G0"] == 1


class TestBigger:
    def test_s298_verified_coverage(self, s298_netlist):
        faults = collapse_stuck(
            s298_netlist, all_stuck_faults(s298_netlist)
        )
        results = generate_tests(s298_netlist, faults, backtrack_limit=30)
        detected = [r for r in results if r.detected]
        assert len(detected) / len(faults) > 0.7
        sim = FaultSimulator(s298_netlist)
        patterns = [r.test for r in detected]
        batch = sim.simulate_stuck([r.fault for r in detected], patterns)
        assert batch.coverage == 1.0  # every generated test verifies


def _lane(v0, v1, slot, bit):
    """Three-valued value of one machine (bit 0 good, bit 1 faulty)."""
    if (v0[slot] >> bit) & 1:
        return 0
    if (v1[slot] >> bit) & 1:
        return 1
    return X


def _effect(v0, v1, slot):
    """Both machines known and different at ``slot``."""
    a0 = v0[slot]
    a1 = v1[slot]
    return bool(((a1 & (a0 >> 1)) | (a0 & (a1 >> 1))) & 1)


def _scan_fault_at_output(engine):
    """From-scratch form of ``Podem._fault_at_output``: every
    observation point checked."""
    v0, v1 = engine._v0, engine._v1
    return any(_effect(v0, v1, out) for out in engine.compiled.observe_idx)


def _scan_d_frontier(engine):
    """From-scratch form of ``Podem._d_frontier``: every eval position
    (a superset of the site's cone) whose composite value is unsettled
    and which reads a fault effect, ascending."""
    v0, v1 = engine._v0, engine._v1
    base = engine.compiled.n_prefix
    frontier = []
    for p, fanin in enumerate(engine.compiled.fanins):
        slot = base + p
        if (v0[slot] | v1[slot]) == 3:
            continue
        if any(_effect(v0, v1, f) for f in fanin):
            frontier.append(p)
    return frontier


class TestPackedState:
    """PODEM's packed good/faulty arrays against the dict reference.

    Random decide/undo walks drive ``_assign_pi``/``_undo`` directly.
    After every step bit 0 of each slot must equal a fresh
    three-valued simulation of the decided inputs, and bit 1 the same
    simulation with the fault site forced to its stuck value; an undo
    must restore both arrays exactly.  The incrementally kept
    D-frontier and "effect at an output" answer must equal a scan from
    scratch after every step too.
    """

    STEPS = 60

    @staticmethod
    def _sites(compiled, rng):
        """A primary input, a state input and an internal gate."""
        names = compiled.names
        sites = [names[0]]
        if compiled.n_prefix > compiled.n_inputs:
            sites.append(names[compiled.n_inputs])
        sites.append(compiled.order[len(compiled.order) // 2])
        return [StuckFault(net, rng.randint(0, 1)) for net in sites]

    def _check(self, engine, reference, assignment, fault):
        compiled = engine.compiled
        v0, v1 = engine._v0, engine._v1
        good = reference.simulate(assignment)
        faulty = (good if fault is None else
                  reference.simulate(assignment,
                                     force=(fault.net, fault.value)))
        for slot, net in enumerate(compiled.names):
            assert _lane(v0, v1, slot, 0) == good[net], (fault, net)
            assert _lane(v0, v1, slot, 1) == faulty[net], (fault, net)
        assert engine._d_frontier() == _scan_d_frontier(engine), fault
        assert engine._fault_at_output() == _scan_fault_at_output(engine)

    def _walk(self, engine, reference, fault, rng):
        compiled = engine.compiled
        names = compiled.names
        if fault is None:
            engine._begin(None)
        else:
            engine._begin(compiled.index[fault.net], fault.value)
        assignment = {}
        stack = []
        self._check(engine, reference, assignment, fault)
        for _ in range(self.STEPS):
            free = [s for s in range(compiled.n_prefix)
                    if names[s] not in assignment]
            if stack and (not free or rng.random() < 0.4):
                slot, trail, before = stack.pop()
                engine._undo(trail)
                del assignment[names[slot]]
                assert (engine._v0, engine._v1) == before
            else:
                slot = rng.choice(free)
                value = rng.randint(0, 1)
                before = (list(engine._v0), list(engine._v1))
                trail = engine._assign_pi(slot, value)
                assignment[names[slot]] = value
                stack.append((slot, trail, before))
            self._check(engine, reference, assignment, fault)

    @pytest.mark.parametrize("name", ["s27", "s298", "s344", "s1196",
                                      "s27-mapped", "s382-mapped"])
    def test_random_walks_match_reference(self, name):
        """The mapped designs add OAI22 (s27) and AOI21/OAI21 (s382)."""
        circuit, _, mapped = name.partition("-")
        netlist = load_circuit(circuit)
        if mapped:
            netlist = map_netlist(netlist)
        engine = Podem(netlist)
        reference = ReferenceThreeValuedSimulator(netlist)
        rng = random.Random(11)
        for fault in self._sites(engine.compiled, rng):
            self._walk(engine, reference, fault, rng)

    @pytest.mark.parametrize("name", ["s27", "s298", "s344"])
    def test_search_queries_match_scan(self, name):
        """Inside real searches -- decisions, backtracks, aborts, where
        fault effects are plentiful -- every D-frontier and
        effect-at-output answer equals the from-scratch scan."""
        netlist = load_circuit(name)
        engine = Podem(netlist, backtrack_limit=20)
        frontier = engine._d_frontier
        at_output = engine._fault_at_output
        seen = {"frontier": 0, "output": 0}

        def checked_frontier():
            got = frontier()
            assert got == _scan_d_frontier(engine)
            seen["frontier"] += bool(got)
            return got

        def checked_at_output():
            got = at_output()
            assert got == _scan_fault_at_output(engine)
            seen["output"] += got
            return got

        engine._d_frontier = checked_frontier
        engine._fault_at_output = checked_at_output
        faults = collapse_stuck(netlist, all_stuck_faults(netlist))
        for fault in faults[::max(1, len(faults) // 40)]:
            engine.generate(fault)
        assert seen["frontier"] and seen["output"]

    def test_justify_state_mirrors_good_machine(self, s298_netlist):
        """Without a fault site both bits hold the fault-free machine."""
        engine = Podem(s298_netlist)
        reference = ReferenceThreeValuedSimulator(s298_netlist)
        self._walk(engine, reference, None, random.Random(17))

    def test_site_decision_keeps_stuck_value(self, s27_netlist):
        """Deciding the fault site itself sets only the good bit."""
        engine = Podem(s27_netlist)
        site = engine.compiled.index["G0"]
        engine._begin(site, 1)
        trail = engine._assign_pi(site, 0)
        assert (engine._v0[site], engine._v1[site]) == (1, 2)
        engine._undo(trail)
        assert (engine._v0[site], engine._v1[site]) == (0, 2)

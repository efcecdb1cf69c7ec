"""Tests for the Section V fanout optimization."""

import pytest

from repro.bench import load_circuit
from repro.dft import insert_flh, insert_scan, optimize_fanout
from repro.dft.fanout_opt import _optimize_one_ff
from repro.errors import DftError
from repro.netlist import Netlist, content_hash, first_level_gates, validate
from repro.perf.reference import ReferenceLogicSimulator
from repro.power import LogicSimulator
from repro.synth import map_netlist
from repro.timing import critical_delay

#: The optimizer's output at ``n_vectors=30``: the netlist's content
#: hash and (ffs_optimized, buffers_added, first_level_after).  Any
#: change to an accept/reject decision moves these.
PINNED = {
    "s838": (
        "e675338f634fbeb3fe789dc4f609aa263460bbcb2abf035a4afe2aecf10334eb",
        (12, 13, 52),
    ),
    "s1423": (
        "e5cb9349457f2929ec2dbe76d404ea406545eeba4e4ef8ffecc594a425f274cd",
        (16, 21, 84),
    ),
}


@pytest.fixture(scope="module")
def s838_result():
    """s838 is the paper's high-fanout example; optimize it once."""
    scan = insert_scan(map_netlist(load_circuit("s838")))
    return scan, optimize_fanout(scan, n_vectors=30)


class TestOptimizeFanout:
    def test_first_level_gates_reduced(self, s838_result):
        _, result = s838_result
        assert result.first_level_after < result.first_level_before

    def test_area_overhead_improves(self, s838_result):
        _, result = s838_result
        assert result.area_overhead_after_pct < result.area_overhead_before_pct
        assert result.area_improvement_pct > 0.0

    def test_delay_constraint_respected(self, s838_result):
        scan, result = s838_result
        before = critical_delay(scan.netlist, scan.library)
        after = critical_delay(
            result.optimized.netlist, result.optimized.library
        )
        assert after <= before * 1.001 + 1e-15

    @pytest.mark.parametrize("circuit", ["s838", "s1423"])
    def test_optimized_netlist_valid(self, circuit, s838_result):
        # s1423 has flip-flops whose only combinational sinks are
        # inverters, the reuse path's no-remaining-sinks corner.
        if circuit == "s838":
            _, result = s838_result
        else:
            scan = insert_scan(map_netlist(load_circuit(circuit)))
            result = optimize_fanout(scan, n_vectors=30)
        validate(result.optimized.netlist)
        digest, counts = PINNED[circuit]
        assert content_hash(result.optimized.netlist) == digest
        assert (result.ffs_optimized, result.buffers_added,
                result.first_level_after) == counts

    def test_logic_function_preserved(self, s838_result):
        import random

        scan, result = s838_result
        rng = random.Random(3)
        nets = list(scan.netlist.inputs) + list(scan.netlist.state_inputs)
        sim_a = LogicSimulator(scan.netlist)
        sim_b = LogicSimulator(result.optimized.netlist)
        for _ in range(10):
            vec = {net: rng.randint(0, 1) for net in nets}
            va, vb = dict(vec), dict(vec)
            sim_a.eval_combinational(va, 1)
            sim_b.eval_combinational(vb, 1)
            for out in scan.netlist.outputs:
                assert va[out] == vb[out]
            for a, b in zip(
                scan.netlist.state_outputs,
                result.optimized.netlist.state_outputs,
            ):
                assert va[a] == vb[b]

    def test_comb_power_comparable(self, s838_result):
        _, result = s838_result
        # Paper: "The power in normal mode remains comparable."
        assert result.comb_power_after == pytest.approx(
            result.comb_power_before, rel=0.25
        )

    def test_row_keys(self, s838_result):
        _, result = s838_result
        row = result.as_row()
        for key in ("circuit", "FF", "fanout_before", "fanout_after",
                    "area_ovh_before_%", "area_ovh_after_%", "improv_%"):
            assert key in row

    def test_candidates_are_not_timed_from_scratch(self, monkeypatch):
        from repro.timing import sta

        compiled = []
        real = sta.compile_netlist

        def counting(netlist):
            compiled.append(netlist.name)
            return real(netlist)

        monkeypatch.setattr(sta, "compile_netlist", counting)
        scan = insert_scan(map_netlist(load_circuit("s838")))
        result = optimize_fanout(scan, n_vectors=10)
        assert result.ffs_optimized >= 10
        # The optimizer's own state; FLH sizing before and after reads
        # it and its last re-timed successor.
        assert len(compiled) == 1
        # Sizing FLH from the re-timed state equals sizing it from a
        # fresh timing of the optimized netlist.
        fresh = insert_flh(insert_scan(result.optimized.netlist,
                                       chain_order=scan.scan_chain))
        assert result.optimized.flh_gating == fresh.flh_gating

    def test_span_and_counters(self):
        from repro.obs import Recorder, use_recorder

        scan = insert_scan(map_netlist(load_circuit("s838")))
        rec = Recorder()
        with use_recorder(rec):
            result = optimize_fanout(scan, n_vectors=10)
        spans = [e for e in rec.events if e["name"] == "fanout.optimize"]
        assert len(spans) == 1
        assert spans[0]["ph"] == "X"
        assert spans[0]["args"]["circuit"] == "s838"
        accepted = rec.counter("fanout.accepted")
        rejected = rec.counter("fanout.rejected_delay")
        assert accepted == result.ffs_optimized
        assert rec.counter("fanout.candidates") >= accepted + rejected > 0

    def test_counts_consistent(self, s838_result):
        scan, result = s838_result
        assert result.n_ffs == scan.n_scan_cells
        assert result.first_level_after == len(
            first_level_gates(result.optimized.netlist)
        )
        assert result.ffs_optimized > 0
        assert result.buffers_added >= result.ffs_optimized


class TestInverterReuse:
    @staticmethod
    def _observed(netlist):
        # Every combination of the core inputs, one per bit lane.
        nets = list(netlist.inputs) + sorted(netlist.state_inputs)
        lanes = 1 << len(nets)
        words = {
            net: sum(1 << k for k in range(lanes) if k >> i & 1)
            for i, net in enumerate(nets)
        }
        values = ReferenceLogicSimulator(netlist).eval_combinational(
            words, (1 << lanes) - 1
        )
        return ([values[net] for net in netlist.outputs]
                + [values[gate.fanin[0]] for gate in
                   sorted(netlist.dffs(), key=lambda g: g.name)])

    def test_primary_output_inverter_keeps_polarity(self, library):
        # q's inverter nq is also a primary output.
        n = Netlist("po_inverter")
        n.add_input("a")
        n.add_input("b")
        n.add("q", "DFF", ("d",))
        n.add("nq", "NOT", ("q",))
        n.add("g1", "NAND", ("q", "a"))
        n.add("g2", "NOR", ("q", "b"))
        n.add("d", "AND", ("g1", "g2"))
        n.add_output("nq")
        before = map_netlist(n, library)
        after = before.copy()
        added = _optimize_one_ff(after, "q", library)
        validate(after)
        assert self._observed(after) == self._observed(before)
        # nq is not reused: the optimizer buffers q with a fresh pair.
        assert added == 2

    def test_inverter_on_a_data_pin_leaves_no_dead_gate(self, library):
        # n2 is q's second inverter and only feeds q2's data pin.
        n = Netlist("data_pin_inverter")
        n.add_input("a")
        n.add_input("b")
        n.add("q", "DFF", ("d",))
        n.add("n1", "NOT", ("q",))
        n.add("n2", "NOT", ("q",))
        n.add("q2", "DFF", ("n2",))
        n.add("g", "NAND", ("n1", "a"))
        n.add("h", "NOR", ("q", "b"))
        n.add("d", "NAND", ("g", "h", "q2"))
        n.add_output("h")
        before = map_netlist(n, library)
        after = before.copy()
        assert _optimize_one_ff(after, "q", library) == 1
        validate(after)
        assert "n2" not in after
        assert self._observed(after) == self._observed(before)


class TestGuards:
    def test_requires_plain_scan(self, s27_designs):
        with pytest.raises(DftError):
            optimize_fanout(s27_designs["flh"])

    def test_max_candidates_bounds_work(self):
        scan = insert_scan(map_netlist(load_circuit("s298")))
        limited = optimize_fanout(scan, n_vectors=20, max_candidates=2)
        assert limited.ffs_optimized <= 2

    def test_low_fanout_circuit_noop(self, s27_scan):
        # s27 flip-flops each drive a single unique first-level gate.
        result = optimize_fanout(s27_scan, n_vectors=20)
        assert result.ffs_optimized == 0
        assert result.first_level_after == result.first_level_before

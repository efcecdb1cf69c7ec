"""The event-driven stuck-at kernel against the dict reference.

:meth:`repro.netlist.CompiledNetlist.detect_sites` follows a fault's
effect through the nets that change instead of re-evaluating its whole
fanout cone.  Nothing of that may show in the masks: in full-mask mode
every word equals :class:`repro.perf.reference.ReferenceFaultSimulator`'s,
and in early-exit (drop) mode it equals the first non-zero per-output
difference in ``netlist.core_outputs`` order.  Transition faults are
checked the same way through their V2 stuck-at condition, restricted to
the launch lanes.  Runs on the integer kernels alone (no numpy).
"""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fault import (
    FaultSimulator,
    all_stuck_faults,
    all_transition_faults,
)
from repro.netlist import Netlist, compile_netlist
from repro.perf.reference import ReferenceFaultSimulator

from .strategies import comb_netlist


def _patterns(netlist, n, rng):
    nets = list(netlist.inputs) + list(netlist.state_inputs)
    return [{net: rng.randint(0, 1) for net in nets} for _ in range(n)]


def _first_nonzero(diffs):
    return next((d for d in diffs if d), 0)


def _stuck_oracle(ref, faults, good, mask, drop):
    out = {}
    for fault in faults:
        diffs = ref.output_diffs(fault, good, mask)
        if drop:
            out[fault] = _first_nonzero(diffs)
        else:
            out[fault] = ref.detect_stuck(fault, good, mask)
    return out


def _transition_oracle(ref, faults, good1, good2, mask, drop):
    out = {}
    for fault in faults:
        site1 = good1[fault.net]
        launch = (site1 if fault.initial_value == 1 else ~site1) & mask
        diffs = [launch & d for d in
                 ref.output_diffs(fault.equivalent_stuck, good2, mask)]
        if drop:
            out[fault] = _first_nonzero(diffs)
        else:
            out[fault] = 0
            for d in diffs:
                out[fault] |= d
    return out


def _check_stuck(netlist, patterns, drop):
    faults = all_stuck_faults(netlist)
    ref = ReferenceFaultSimulator(netlist)
    good, mask = ref.good_values(patterns)
    want = _stuck_oracle(ref, faults, good, mask, drop)
    sim = FaultSimulator(netlist, backend="int")
    got = sim.simulate_stuck(faults, patterns, drop_detected=drop)
    assert got.detected == want
    assert list(got.detected) == faults


def _check_transition(netlist, pairs, drop):
    faults = all_transition_faults(netlist)
    ref = ReferenceFaultSimulator(netlist)
    good1, mask = ref.good_values([v1 for v1, _ in pairs])
    good2, _ = ref.good_values([v2 for _, v2 in pairs])
    want = _transition_oracle(ref, faults, good1, good2, mask, drop)
    sim = FaultSimulator(netlist, backend="int")
    got = sim.simulate_transition(faults, pairs, drop_detected=drop)
    assert got.detected == want
    assert list(got.detected) == faults


@given(comb_netlist(), st.integers(1, 70), st.booleans(),
       st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_property_stuck_matches_reference(netlist, n_patterns, drop, rng):
    _check_stuck(netlist, _patterns(netlist, n_patterns, rng), drop)


@given(comb_netlist(), st.integers(1, 70), st.booleans(),
       st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_property_transition_matches_reference(netlist, n_pairs, drop, rng):
    v1s = _patterns(netlist, n_pairs, rng)
    v2s = _patterns(netlist, n_pairs, rng)
    _check_transition(netlist, list(zip(v1s, v2s)), drop)


def _repeated_observation_netlist():
    """``y`` is a primary output *and* a flip-flop data input.

    ``observe_idx`` is ``(z, y, y)``: ``y`` repeats, and ``z``, which is
    downstream of ``y``, comes first -- so early exit must pick by
    observation order, not by topological order.
    """
    n = Netlist("dup_observe")
    n.add_input("a")
    n.add_input("b")
    n.add("q", "DFF", ("y",))
    n.add("y", "NAND", ("a", "q"))
    n.add("z", "NOR", ("y", "b"))
    n.add_output("z")
    n.add_output("y")
    return n


class TestRepeatedObservationSlot:
    def test_observe_rank_is_first_occurrence(self):
        netlist = _repeated_observation_netlist()
        compiled = compile_netlist(netlist)
        y, z = compiled.index["y"], compiled.index["z"]
        assert compiled.observe_idx == (z, y, y)
        assert compiled.observe_rank[z] == 0
        assert compiled.observe_rank[y] == 1
        unobserved = len(compiled.observe_idx)
        for net in ("a", "b", "q"):
            assert compiled.observe_rank[compiled.index[net]] == unobserved

    def test_masks_match_reference(self):
        netlist = _repeated_observation_netlist()
        nets = list(netlist.inputs) + list(netlist.state_inputs)
        exhaustive = [dict(zip(nets, bits))
                      for bits in itertools.product((0, 1), repeat=len(nets))]
        pairs = list(itertools.product(exhaustive, repeat=2))
        for drop in (False, True):
            _check_stuck(netlist, exhaustive, drop)
            _check_transition(netlist, pairs, drop)

    def test_early_exit_takes_first_observed_difference(self):
        """y stuck-at-0 differs at z only where b = 0, at y everywhere
        y = 1: early exit returns z's word, the first in order."""
        netlist = _repeated_observation_netlist()
        sim = FaultSimulator(netlist, backend="int")
        compiled = sim.compiled
        patterns = [{"a": a, "b": b, "q": q}
                    for a, b, q in itertools.product((0, 1), repeat=3)]
        good, mask = sim.good_array(patterns)
        site = (compiled.index["y"], 0, None)
        y_word = good[compiled.index["y"]]
        b_word = good[compiled.index["b"]]
        full, = compiled.detect_sites([site], good, mask)
        early, = compiled.detect_sites([site], good, mask, early_exit=True)
        assert full == y_word
        assert early == y_word & ~b_word & mask
        assert early and early != full


def test_unobservable_gates_are_skipped_not_misread():
    """A dead-end branch reaches no observation point: the early-exit
    walk skips it, the full-mask walk evaluates it, and both match the
    reference."""
    n = Netlist("dead_end")
    for net in ("a", "b", "c"):
        n.add_input(net)
    n.add("d", "AND", ("a", "b"))
    n.add("e", "NOT", ("d",))          # dead end: no reader, not observed
    n.add("y", "OR", ("d", "c"))
    n.add_output("y")
    compiled = compile_netlist(n)
    unobserved = len(compiled.observe_idx)
    pos_e = compiled.index["e"] - compiled.n_prefix
    assert compiled._reach_rank[pos_e] == unobserved
    nets = list(n.inputs)
    exhaustive = [dict(zip(nets, bits))
                  for bits in itertools.product((0, 1), repeat=len(nets))]
    for drop in (False, True):
        _check_stuck(n, exhaustive, drop)


def test_limit_confines_the_difference():
    """Forcing only the ``limit`` lanes gives the full-mask word
    restricted to them, and a site not excited there reads 0."""
    netlist = _repeated_observation_netlist()
    compiled = compile_netlist(netlist)
    sim = FaultSimulator(netlist, backend="int")
    rng = random.Random(5)
    patterns = _patterns(netlist, 40, rng)
    good, mask = sim.good_array(patterns)
    for net in ("a", "b", "q", "y", "z"):
        slot = compiled.index[net]
        for value in (0, mask):
            full, = compiled.detect_sites([(slot, value, None)], good, mask)
            for _ in range(5):
                limit = rng.getrandbits(40) & mask
                got, = compiled.detect_sites([(slot, value, limit)],
                                             good, mask)
                assert got == full & limit
    # Not excited in the limit lanes: the good value already equals it.
    slot = compiled.index["a"]
    ones = good[slot]
    assert compiled.detect_sites([(slot, mask, ones)], good, mask) == [0]

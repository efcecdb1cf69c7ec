"""Hypothesis properties of the static-analysis layer.

Circuits come from the catalog reconstruction generator
(:mod:`repro.bench.generator`) with randomized small specs, so the
properties run over structurally-diverse sequential netlists rather
than hand-picked examples:

* SCOAP controllability is monotone non-decreasing along topological
  depth -- a gate output can never be cheaper to control than its
  cheapest fanin plus one;
* every statically-proven-untestable stuck fault is confirmed
  undetectable by exhaustive bit-parallel simulation (zero false
  proofs), and every learned implication holds in every reachable
  pattern.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import ImplicationEngine, TestabilityAnalyzer, compute_scoap
from repro.bench.catalog import CircuitSpec
from repro.bench.generator import generate
from repro.netlist import compile_netlist

from tests.analysis.exhaustive import exhaustive_good, stuck_detectable


@st.composite
def generated_netlist(draw):
    """Small ISCAS89-like netlist (<= 8 core inputs: exhaustible)."""
    fanout_per_ff = draw(st.floats(1.2, 2.5))
    spec = CircuitSpec(
        name=f"hp{draw(st.integers(0, 10 ** 6))}",
        n_pi=draw(st.integers(2, 4)),
        n_po=draw(st.integers(1, 3)),
        n_ff=draw(st.integers(1, 4)),
        n_gates=draw(st.integers(8, 30)),
        depth=draw(st.integers(3, 6)),
        fanout_per_ff=fanout_per_ff,
        unique_ratio=draw(st.floats(1.0, fanout_per_ff)),
    )
    return generate(spec)


@given(generated_netlist())
@settings(max_examples=30, deadline=None)
def test_controllability_monotone_along_depth(netlist):
    scores = compute_scoap(netlist, style="scan")
    compiled = compile_netlist(netlist)
    base = compiled.n_prefix
    for p, fanin in enumerate(compiled.fanins):
        out = min(scores.cc0[base + p], scores.cc1[base + p])
        cheapest_in = min(
            min(scores.cc0[f], scores.cc1[f]) for f in fanin)
        assert out >= cheapest_in + 1


@given(generated_netlist())
@settings(max_examples=30, deadline=None)
def test_controllability_finite_and_at_least_one(netlist):
    scores = compute_scoap(netlist, style="scan")
    for cc in (scores.cc0, scores.cc1):
        assert all(1.0 <= v < float("inf") for v in cc)


@given(generated_netlist())
@settings(max_examples=20, deadline=None)
def test_untestable_proofs_sound(netlist):
    compiled = compile_netlist(netlist)
    analyzer = TestabilityAnalyzer(netlist, use_cache=False)
    untestable = analyzer.untestable_stuck()
    if not untestable:
        return
    good, mask = exhaustive_good(compiled)
    for fault in untestable:
        assert not stuck_detectable(
            compiled, good, mask, fault.net, fault.value), fault


@given(generated_netlist())
@settings(max_examples=15, deadline=None)
def test_implications_sound(netlist):
    compiled = compile_netlist(netlist)
    good, mask = exhaustive_good(compiled)
    engine = ImplicationEngine(compiled)
    for slot in range(len(compiled.names)):
        word = good[slot] & mask
        for value in (0, 1):
            premise = word if value else ~word & mask
            imps = engine.implications(slot, value)
            if imps is None:
                assert premise == 0, (slot, value)
                continue
            for islot, ivalue in imps.items():
                holds = good[islot] & mask
                if not ivalue:
                    holds = ~holds & mask
                assert premise & ~holds & mask == 0, (slot, value, islot)

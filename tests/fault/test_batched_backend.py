"""Fault-batched wide simulation must be invisible in the results.

``WideEngine.detect_batched`` packs B faults x W pattern-words into one
plan walk; nothing about the batch size -- 1, a divisor of the fault
count, an odd remainder, or more batches than faults -- may show in
the detection masks.  The catalog-wide numpy-vs-int pins in
``test_numpy_backend.py`` already run the default batch size; this
file pins the batching axis itself: forced batch sizes (empty and
single-fault lists included) against the integer kernels, the
overlapping-cone case where one fault's site sits inside another
batch-mate's cone, reconvergent paths of different lengths, the sparse
fault state's memory bound, the sharded pool in transition drop mode
(empty shards included), the end-to-end ATPG/experiment artifacts
across backends, and the ``repro fsim`` command line.

Skipped entirely when numpy is not importable (``test_backends.py``
covers batch sizing without numpy).
"""

import random
import tracemalloc

import pytest

np = pytest.importorskip("numpy", exc_type=ImportError)

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import load_circuit
from repro.fault import (
    AtpgFlow,
    AtpgFlowConfig,
    FaultSimulator,
    ShardedFaultSimulator,
    StuckFault,
    all_stuck_faults,
    all_transition_faults,
    random_pattern_words,
    shard_faults,
)
from repro.fault.backends import select_batch_faults
from repro.netlist import Netlist, compile_netlist, validate
from repro.netlist.wide import WideEngine, clear_plan_cache, words_per_batch
from repro.obs import Recorder, use_recorder

from .strategies import comb_netlist

N_PATTERNS = 130
MAX_FAULTS = 30


def _sampled(faults):
    stride = max(1, len(faults) // MAX_FAULTS)
    return faults[::stride]


def _force_batch(monkeypatch, batch):
    """Run every numpy-backend wide call ``batch`` faults per plan walk."""
    monkeypatch.setattr(FaultSimulator, "_batch_for",
                        lambda self, n_patterns: batch)


def _pairs(netlist, n, seed):
    rng = random.Random(seed)
    nets = list(netlist.inputs) + list(netlist.state_inputs)
    return [
        (
            {net: rng.randint(0, 1) for net in nets},
            {net: rng.randint(0, 1) for net in nets},
        )
        for _ in range(n)
    ]


@pytest.mark.parametrize("batch", [1, 2, 3, 8, 64, 10_000])
@pytest.mark.parametrize("drop", [False, True])
def test_stuck_identical_at_every_batch_size(s298_netlist, monkeypatch,
                                            batch, drop):
    """Odd sizes, non-divisors, and oversized batches are all invisible,
    on a fault sample, an empty fault list and a single detected fault."""
    words = random_pattern_words(s298_netlist, N_PATTERNS, seed=3)
    int_sim = FaultSimulator(s298_netlist, backend="int")
    _force_batch(monkeypatch, batch)
    numpy_sim = FaultSimulator(s298_netlist, backend="numpy")

    def check(faults):
        want = int_sim.simulate_stuck_packed(faults, words, N_PATTERNS,
                                             drop_detected=drop)
        got = numpy_sim.simulate_stuck_packed(faults, words, N_PATTERNS,
                                              drop_detected=drop)
        assert got.detected == want.detected
        assert list(got.detected) == list(want.detected)
        assert got.coverage == want.coverage
        return want

    detected = check(_sampled(all_stuck_faults(s298_netlist))).detected_faults
    assert detected
    check([])
    check(detected[-1:])


@pytest.mark.parametrize("drop", [False, True])
def test_transition_identical_at_odd_batch_size(s344_netlist, monkeypatch,
                                                drop):
    faults = _sampled(all_transition_faults(s344_netlist))
    pairs = _pairs(s344_netlist, 70, seed=5)
    want = FaultSimulator(s344_netlist, backend="int").simulate_transition(
        faults, pairs, drop_detected=drop
    )
    _force_batch(monkeypatch, 7)
    got = FaultSimulator(s344_netlist, backend="numpy").simulate_transition(
        faults, pairs, drop_detected=drop)
    assert got.detected == want.detected
    assert list(got.detected) == list(want.detected)


def test_whole_fault_list_in_one_batch(s27_netlist, monkeypatch):
    """Every fault of s27 in a single batch, exhaustive inputs."""
    faults = all_stuck_faults(s27_netlist)
    words = random_pattern_words(s27_netlist, 128, seed=1)
    want = FaultSimulator(s27_netlist, backend="int").simulate_stuck_packed(
        faults, words, 128
    )
    _force_batch(monkeypatch, len(faults))
    got = FaultSimulator(s27_netlist, backend="numpy").simulate_stuck_packed(
        faults, words, 128)
    assert got.detected == want.detected


def test_overlapping_cones_share_a_batch(monkeypatch):
    """A fault whose site lies inside a batch-mate's cone must keep its
    forced value: the chain a -> b -> c puts b (fault site) squarely in
    a's fanout cone, and both faults ride one batch."""
    netlist = Netlist("chain")
    netlist.add_input("a")
    netlist.add("b", "NOT", ["a"])
    netlist.add("c", "NOT", ["b"])
    netlist.add_output("c")
    validate(netlist)
    faults = [
        StuckFault("a", 0), StuckFault("a", 1),
        StuckFault("b", 0), StuckFault("b", 1),
        StuckFault("c", 0), StuckFault("c", 1),
    ]
    words = random_pattern_words(netlist, 96, seed=9)
    _force_batch(monkeypatch, len(faults))
    for drop in (False, True):
        want = FaultSimulator(netlist, backend="int").simulate_stuck_packed(
            faults, words, 96, drop_detected=drop
        )
        got = FaultSimulator(netlist, backend="numpy").simulate_stuck_packed(
            faults, words, 96, drop_detected=drop)
        assert got.detected == want.detected


def test_reconvergent_paths_share_a_batch(monkeypatch):
    """Paths of different lengths from one site reconverge on a gate,
    and a gate reads one net on two pins: each gate must be evaluated
    once per fault column, after all of its fanins."""
    netlist = Netlist("reconverge")
    for net in ("a", "b", "c"):
        netlist.add_input(net)
    netlist.add("n1", "NOT", ["a"])
    netlist.add("n2", "BUF", ["n1"])
    netlist.add("n3", "NOT", ["n2"])
    netlist.add("r", "NAND", ["a", "n3", "b"])  # a: 1 and 4 levels away
    netlist.add("d", "OR", ["r", "n1", "r"])    # r on two pins
    netlist.add("y", "XNOR", ["d", "n2", "c"])
    netlist.add_output("y")
    netlist.add_output("r")
    validate(netlist)
    faults = all_stuck_faults(netlist)
    words = random_pattern_words(netlist, N_PATTERNS, seed=12)
    _force_batch(monkeypatch, len(faults))
    for drop in (False, True):
        want = FaultSimulator(netlist, backend="int").simulate_stuck_packed(
            faults, words, N_PATTERNS, drop_detected=drop
        )
        got = FaultSimulator(netlist, backend="numpy").simulate_stuck_packed(
            faults, words, N_PATTERNS, drop_detected=drop)
        assert got.detected == want.detected


def test_batched_fault_state_is_sparse():
    """The batched walk stores only the (net, fault) pairs that differ
    from the good machine, so its traced peak stays far below the dense
    ``n_slots x B x n_words`` fault state (numpy reports its buffers to
    tracemalloc)."""
    netlist = load_circuit("s5378")
    sim = FaultSimulator(netlist, backend="numpy")
    faults = all_stuck_faults(netlist)[::37][:48]
    words = random_pattern_words(netlist, 1024, seed=4)
    sim.simulate_stuck_packed(faults, words, 1024)  # plan, lazy imports
    n_slots = len(sim.compiled.names)
    b_cap = min(select_batch_faults(1024, n_slots), len(faults))
    dense = n_slots * b_cap * words_per_batch(1024) * 8
    tracemalloc.start()
    try:
        result = sim.simulate_stuck_packed(faults, words, 1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(faults) == 48 and b_cap > 1
    assert any(result.detected.values())
    assert peak < dense / 2, (peak, dense)


@given(comb_netlist(), st.integers(65, 150), st.integers(2, 9),
       st.booleans(), st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_property_batched_matches_int(netlist, n_patterns, batch, drop,
                                      rng):
    faults = all_stuck_faults(netlist)
    words = random_pattern_words(netlist, n_patterns,
                                 seed=rng.getrandbits(16))
    with pytest.MonkeyPatch.context() as monkeypatch:
        _force_batch(monkeypatch, batch)
        got = FaultSimulator(netlist, backend="numpy").simulate_stuck_packed(
            faults, words, n_patterns, drop_detected=drop)
    want = FaultSimulator(netlist, backend="int").simulate_stuck_packed(
        faults, words, n_patterns, drop_detected=drop
    )
    assert got.detected == want.detected
    assert list(got.detected) == list(want.detected)


# ----------------------------------------------------------------------
# sharded pool
# ----------------------------------------------------------------------
class TestSharded:
    def test_block_sharding_default_is_round_robin(self):
        faults = list(range(10))
        assert shard_faults(faults, 3) == shard_faults(faults, 3, block=1)

    def test_block_sharding_deals_whole_blocks(self):
        faults = list(range(10))
        shards = shard_faults(faults, 2, block=3)
        assert shards == [[0, 1, 2, 6, 7, 8], [3, 4, 5, 9]]
        assert sorted(sum(shards, [])) == faults

    def test_block_must_be_positive(self):
        with pytest.raises(ValueError, match="block"):
            shard_faults([1, 2], 2, block=0)

    def test_sharded_batched_stuck_matches_serial_int(self, s298_netlist):
        faults = _sampled(all_stuck_faults(s298_netlist))
        words = random_pattern_words(s298_netlist, N_PATTERNS, seed=21)
        want = FaultSimulator(
            s298_netlist, backend="int"
        ).simulate_stuck_packed(faults, words, N_PATTERNS,
                                drop_detected=True)
        with ShardedFaultSimulator(s298_netlist, processes=2,
                                   backend="numpy") as pool:
            got = pool.simulate_stuck_packed(faults, words, N_PATTERNS,
                                             drop_detected=True)
        assert got.detected == want.detected
        assert list(got.detected) == list(want.detected)

    @pytest.mark.parametrize("backend", ["int", "numpy"])
    def test_sharded_transition_drop_matches_serial_int(self, s298_netlist,
                                                        backend):
        """Transition drop-mode through the pool, both backends."""
        faults = _sampled(all_transition_faults(s298_netlist))
        pairs = _pairs(s298_netlist, 70, seed=13)
        want = FaultSimulator(
            s298_netlist, backend="int"
        ).simulate_transition(faults, pairs, drop_detected=True)
        with ShardedFaultSimulator(s298_netlist, processes=2,
                                   backend=backend) as pool:
            got = pool.simulate_transition(faults, pairs,
                                           drop_detected=True)
        assert got.detected == want.detected
        assert list(got.detected) == list(want.detected)
        assert got.coverage == want.coverage
        assert got.n_patterns == want.n_patterns

    def test_sharded_transition_more_processes_than_faults(self,
                                                           s27_netlist):
        """Empty shards (processes > len(faults)) stay harmless."""
        faults = all_transition_faults(s27_netlist)[:2]
        pairs = _pairs(s27_netlist, 70, seed=17)
        want = FaultSimulator(
            s27_netlist, backend="int"
        ).simulate_transition(faults, pairs, drop_detected=True)
        with ShardedFaultSimulator(s27_netlist, processes=4,
                                   backend="numpy") as pool:
            got = pool.simulate_transition(faults, pairs,
                                           drop_detected=True)
        assert got.detected == want.detected
        assert list(got.detected) == list(want.detected)

    def test_sharded_transition_serial_inline(self, s27_netlist):
        """processes=1 runs inline, same entry point."""
        faults = all_transition_faults(s27_netlist)[:4]
        pairs = _pairs(s27_netlist, 70, seed=19)
        want = FaultSimulator(
            s27_netlist, backend="int"
        ).simulate_transition(faults, pairs)
        with ShardedFaultSimulator(s27_netlist, processes=1) as pool:
            got = pool.simulate_transition(faults, pairs)
        assert got.detected == want.detected


# ----------------------------------------------------------------------
# plan / observe-order memoization
# ----------------------------------------------------------------------
def test_plan_memoized_per_compiled_netlist(s298_netlist):
    clear_plan_cache()
    compiled = compile_netlist(s298_netlist)
    first = WideEngine(compiled)
    plan = first.plan
    rec = Recorder()
    with use_recorder(rec):
        second = WideEngine(compiled)
        assert second.plan is plan
        assert second.observe_arr is first.observe_arr
    assert rec.counter("wide.observe_order_hits") == 1


def test_plan_cache_cleared_with_compile_cache(s298_netlist):
    from repro.netlist import clear_compile_cache

    clear_plan_cache()
    compiled = compile_netlist(s298_netlist)
    plan = WideEngine(compiled).plan
    clear_compile_cache()
    rec = Recorder()
    with use_recorder(rec):
        rebuilt = WideEngine(compiled).plan
    assert rec.counter("wide.observe_order_hits") == 0
    assert rebuilt is not plan


def test_simulators_share_one_plan(s344_netlist):
    """Two simulators over the same circuit reuse one plan (the
    memoization the per-call observe order used to rebuild)."""
    clear_plan_cache()
    rec = Recorder()
    sim_a = FaultSimulator(s344_netlist, backend="numpy")
    sim_b = FaultSimulator(s344_netlist, backend="numpy")
    faults = all_stuck_faults(s344_netlist)[:4]
    words = random_pattern_words(s344_netlist, 70, seed=2)
    with use_recorder(rec):
        a = sim_a.simulate_stuck_packed(faults, words, 70)
        b = sim_b.simulate_stuck_packed(faults, words, 70)
    assert a.detected == b.detected
    assert rec.counter("wide.observe_order_hits") >= 1
    # The fanout table is built with the plan and shared the same way.
    fanout = sim_a._wide().fanout
    assert sim_b._wide().fanout is fanout
    assert WideEngine(sim_a.compiled).fanout is fanout


# ----------------------------------------------------------------------
# end-to-end artifacts across backends
# ----------------------------------------------------------------------
def test_atpg_flow_identical_across_backends(s298_netlist):
    """The two-phase flow's artifacts are backend- and batch-blind."""
    results = {}
    for backend, batch in (("int", None), ("numpy", 1), ("numpy", 4),
                           ("numpy", None)):
        with pytest.MonkeyPatch.context() as monkeypatch:
            if batch is not None:
                _force_batch(monkeypatch, batch)
            flow = AtpgFlow(s298_netlist, AtpgFlowConfig(
                seed=7, backend=backend,
            )).run()
        results[(backend, batch)] = (
            flow.coverage, flow.summary(),
            [sorted(t.items()) for t in flow.tests],
        )
    want = results[("int", None)]
    for key, got in results.items():
        assert got == want, f"backend/batch {key} diverged"


def test_coverage_study_render_identical_across_backends(s298_netlist,
                                                        monkeypatch):
    """Table-driver artifact: the rendered Section IV study is
    byte-identical across int and batched-numpy backends."""
    from repro.experiments import coverage_study

    small = dict(n_random_pairs=16, n_check_tests=4)
    want = coverage_study.run("s298", backend="int", **small).render()
    _force_batch(monkeypatch, 8)
    got = coverage_study.run("s298", backend="numpy", **small).render()
    assert got == want


def test_fsim_cli_numpy_check_serial(capsys):
    from repro.fault.sharded import fsim_main

    status = fsim_main(["s27", "--backend", "numpy", "--patterns", "70",
                        "--check-serial"])
    out = capsys.readouterr().out
    assert status == 0
    assert "masks identical to serial" in out


def test_fsim_cli_stress_name_and_max_faults(capsys):
    from repro.fault.sharded import fsim_main

    status = fsim_main(["stress1x", "--patterns", "64", "--max-faults",
                        "32", "--backend", "int"])
    out = capsys.readouterr().out
    assert status == 0
    assert "stress1x" in out
    assert "32 faults" in out


@pytest.mark.parametrize("flag, value", [
    ("--patterns", "-5"),
    ("--max-faults", "-3"),
    ("--processes", "0"),
])
def test_fsim_cli_rejects_bad_numbers(capsys, flag, value):
    """Out-of-range numbers are usage errors (exit 2), not tracebacks or
    a silently shortened fault list."""
    from repro.fault.sharded import fsim_main

    with pytest.raises(SystemExit) as exc:
        fsim_main(["s27", flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err

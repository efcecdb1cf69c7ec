"""The numpy wide-batch backend must be bit-identical to the int kernels.

The wide engine (``repro.netlist.wide``) re-implements fault detection
over contiguous uint64 arrays with changed-set pruning; nothing about
it is allowed to be visible in the results.  These tests pin, on every
catalog circuit and on hypothesis-generated circuits, that the numpy
backend produces exactly the packed detection masks -- same integers,
same dict order, same coverage -- as the integer kernels, in both
full-mask and fault-dropping modes, for stuck-at and transition
faults.  The multi-word packing layout itself (bit *i* of word *w* is
pattern ``64*w + i``) is pinned by golden-seed tests so a layout change
cannot hide behind a self-consistent engine.

Skipped entirely when numpy is not importable (the int kernels are then
the only backend; ``test_backends.py`` covers that fallback).
"""

import random

import pytest

np = pytest.importorskip("numpy", exc_type=ImportError)

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import available_circuits, load_circuit
from repro.fault import (
    FaultSimulator,
    ShardedFaultSimulator,
    all_stuck_faults,
    all_transition_faults,
    random_pattern_words,
)
from repro.netlist import compile_netlist
from repro.netlist.wide import (
    WideEngine,
    row_from_word,
    word_from_row,
    words_per_batch,
)

from .strategies import comb_netlist

# Multi-word on purpose: 130 patterns = two full uint64 lanes plus a
# partial third word, so every masking edge case is in play.
N_PATTERNS = 130
MAX_FAULTS = 30


def _sampled(faults):
    stride = max(1, len(faults) // MAX_FAULTS)
    return faults[::stride]


def _patterns(netlist, n, seed):
    rng = random.Random(seed)
    nets = list(netlist.inputs) + list(netlist.state_inputs)
    return [{net: rng.randint(0, 1) for net in nets} for _ in range(n)]


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


class TestPackingLayout:
    """Golden pins of the multi-word packing layout."""

    def test_words_per_batch(self):
        assert words_per_batch(1) == 1
        assert words_per_batch(64) == 1
        assert words_per_batch(65) == 2
        assert words_per_batch(130) == 3

    def test_bit_i_of_word_w_is_pattern_64w_plus_i(self):
        # Pattern 64*w + i <-> bit i of row[w], little-endian words.
        word = (1 << 0) | (1 << 63) | (1 << 64) | (1 << 129)
        row = row_from_word(word, 3)
        assert row.dtype == np.uint64
        assert row[0] == (1 << 0) | (1 << 63)
        assert row[1] == 1
        assert row[2] == 2

    def test_golden_seed_roundtrip(self):
        rng = random.Random(20050307)
        for n_words in (1, 2, 3, 5):
            word = rng.getrandbits(64 * n_words - 7)
            row = row_from_word(word, n_words)
            assert word_from_row(row) == word
            for w in range(n_words):
                assert int(row[w]) == (word >> (64 * w)) & ((1 << 64) - 1)

    def test_mask_words_partial_tail(self, s27_netlist):
        engine = WideEngine(compile_netlist(s27_netlist))
        maskw = engine.mask_words(130)
        assert list(maskw) == [2**64 - 1, 2**64 - 1, (1 << 2) - 1]
        assert word_from_row(maskw) == (1 << 130) - 1


@pytest.mark.parametrize("name", available_circuits())
@pytest.mark.parametrize("drop", [False, True])
def test_stuck_identical_on_catalog(name, drop):
    netlist = load_circuit(name)
    faults = _sampled(all_stuck_faults(netlist))
    words = random_pattern_words(netlist, N_PATTERNS,
                                 seed=hash(name) & 0xFFFF)
    kwargs = dict(drop_detected=drop)
    got = FaultSimulator(netlist, backend="numpy").simulate_stuck_packed(
        faults, words, N_PATTERNS, **kwargs
    )
    want = FaultSimulator(netlist, backend="int").simulate_stuck_packed(
        faults, words, N_PATTERNS, **kwargs
    )
    assert got.detected == want.detected
    assert list(got.detected) == list(want.detected)  # same dict order
    assert got.coverage == want.coverage
    assert got.n_patterns == want.n_patterns


@pytest.mark.parametrize("name", available_circuits())
@pytest.mark.parametrize("drop", [False, True])
def test_transition_identical_on_catalog(name, drop):
    netlist = load_circuit(name)
    faults = _sampled(all_transition_faults(netlist))
    pairs = _pairs(netlist, 70, seed=hash(name) & 0xFFFF)  # > one word
    got = FaultSimulator(netlist, backend="numpy").simulate_transition(
        faults, pairs, drop_detected=drop
    )
    want = FaultSimulator(netlist, backend="int").simulate_transition(
        faults, pairs, drop_detected=drop
    )
    assert got.detected == want.detected
    assert list(got.detected) == list(want.detected)
    assert got.coverage == want.coverage


def test_pattern_dict_path_identical(s298_netlist):
    faults = _sampled(all_stuck_faults(s298_netlist))
    patterns = _patterns(s298_netlist, 100, seed=9)
    got = FaultSimulator(s298_netlist, backend="numpy").simulate_stuck(
        faults, patterns
    )
    want = FaultSimulator(s298_netlist, backend="int").simulate_stuck(
        faults, patterns
    )
    assert got.detected == want.detected


def test_auto_backend_matches_int_wide_batch(s344_netlist):
    faults = _sampled(all_stuck_faults(s344_netlist))
    words = random_pattern_words(s344_netlist, 128, seed=5)
    got = FaultSimulator(s344_netlist, backend="auto").simulate_stuck_packed(
        faults, words, 128
    )
    want = FaultSimulator(s344_netlist, backend="int").simulate_stuck_packed(
        faults, words, 128
    )
    assert got.detected == want.detected


def test_auto_gates_on_circuit_size(s344_netlist):
    """``auto`` keeps catalog-sized circuits on the integer kernels even
    for wide batches (the wide engine only wins past WIDE_MIN_GATES),
    and goes wide once the circuit is large enough."""
    from repro.fault.backends import WIDE_MIN_GATES

    sim = FaultSimulator(s344_netlist, backend="auto")
    n_gates = len(sim.compiled.names) - sim.compiled.n_prefix
    assert n_gates < WIDE_MIN_GATES
    assert sim._effective_backend(4096) == "int"
    assert sim._effective_backend(0) == "int"
    # Forcing numpy skips the heuristic entirely.
    forced = FaultSimulator(s344_netlist, backend="numpy")
    assert forced._effective_backend(65) == "numpy"


def test_mask_bits_match_per_pattern_simulation(s27_netlist):
    """Bit *p* of a wide detection mask is exactly single-pattern truth."""
    faults = all_stuck_faults(s27_netlist)[:6]
    patterns = _patterns(s27_netlist, 70, seed=13)
    sim_int = FaultSimulator(s27_netlist, backend="int")
    wide = FaultSimulator(s27_netlist, backend="numpy").simulate_stuck(
        faults, patterns
    )
    for p in (0, 1, 63, 64, 69):
        single = sim_int.simulate_stuck(faults, [patterns[p]])
        for fault in faults:
            assert ((wide.detected[fault] >> p) & 1) == \
                (single.detected[fault] & 1)


def test_sharded_numpy_matches_serial_int(s298_netlist):
    faults = _sampled(all_stuck_faults(s298_netlist))
    words = random_pattern_words(s298_netlist, N_PATTERNS, seed=21)
    serial = FaultSimulator(s298_netlist, backend="int")
    want = serial.simulate_stuck_packed(faults, words, N_PATTERNS)
    with ShardedFaultSimulator(s298_netlist, processes=2,
                               backend="numpy") as pool:
        got = pool.simulate_stuck_packed(faults, words, N_PATTERNS)
    assert got.detected == want.detected
    assert got.coverage == want.coverage


@given(comb_netlist(), st.integers(65, 150), st.booleans(),
       st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_property_numpy_matches_int(netlist, n_patterns, drop, rng):
    faults = all_stuck_faults(netlist)
    words = random_pattern_words(netlist, n_patterns,
                                 seed=rng.getrandbits(16))
    got = FaultSimulator(netlist, backend="numpy").simulate_stuck_packed(
        faults, words, n_patterns, drop_detected=drop
    )
    want = FaultSimulator(netlist, backend="int").simulate_stuck_packed(
        faults, words, n_patterns, drop_detected=drop
    )
    assert got.detected == want.detected
    assert list(got.detected) == list(want.detected)

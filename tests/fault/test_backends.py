"""Tests for the simulation backend registry.

The registry resolves ``"auto"``/``"int"``/``"numpy"`` requests into a
concrete backend, degrading gracefully to the integer kernels when
numpy is not importable.  The no-numpy paths are exercised by forcing
the cached availability probe, so these tests run (and mean the same
thing) whether or not numpy is installed.
"""

import random

import pytest

import repro.fault.backends as backends
from repro.errors import SimulationError
from repro.fault import (
    FaultSimulator,
    StuckFault,
    resolve_backend,
    select_backend,
)
from repro.fault.backends import (
    WIDE_MAX_BATCH_FAULTS,
    WIDE_BATCH_BUDGET_WORDS,
    WIDE_MIN_GATES,
    WIDE_MIN_PATTERNS,
    get_wide_engine,
    select_batch_faults,
)


@pytest.fixture
def no_numpy(monkeypatch):
    """Pretend numpy is not importable (the probe result is cached)."""
    monkeypatch.setattr(backends, "_NUMPY_AVAILABLE", False)


@pytest.fixture
def with_numpy(monkeypatch):
    pytest.importorskip("numpy")
    monkeypatch.setattr(backends, "_NUMPY_AVAILABLE", True)


class TestResolve:
    def test_int_always_resolves(self):
        assert resolve_backend("int") == "int"

    def test_unknown_backend_raises(self):
        with pytest.raises(SimulationError, match="unknown simulation"):
            resolve_backend("cuda")

    def test_auto_prefers_numpy_when_available(self, with_numpy):
        assert resolve_backend("auto") == "numpy"
        assert resolve_backend(None) == "numpy"

    def test_explicit_numpy_resolves_when_available(self, with_numpy):
        assert resolve_backend("numpy") == "numpy"

    def test_auto_falls_back_without_numpy(self, no_numpy):
        assert resolve_backend("auto") == "int"
        assert resolve_backend(None) == "int"

    def test_explicit_numpy_without_numpy_raises(self, no_numpy):
        with pytest.raises(SimulationError, match="numpy is not"):
            resolve_backend("numpy")


class TestSelect:
    def test_auto_stays_int_for_single_word_batches(self, with_numpy):
        assert select_backend("auto", WIDE_MIN_PATTERNS - 1) == "int"
        assert select_backend("auto", 1) == "int"

    def test_auto_goes_wide_past_one_word(self, with_numpy):
        assert select_backend("auto", WIDE_MIN_PATTERNS) == "numpy"

    def test_auto_stays_int_below_gate_threshold(self, with_numpy):
        wide = WIDE_MIN_PATTERNS
        assert select_backend("auto", wide, WIDE_MIN_GATES - 1) == "int"
        assert select_backend("auto", wide, WIDE_MIN_GATES) == "numpy"
        # Unknown circuit size decides on batch width alone.
        assert select_backend("auto", wide, None) == "numpy"

    def test_explicit_choices_ignore_workload(self, with_numpy):
        assert select_backend("int", 10_000) == "int"
        assert select_backend("numpy", 1) == "numpy"
        assert select_backend("numpy", 10_000, 1) == "numpy"

    def test_auto_narrow_batch_needs_no_numpy_probe(self, no_numpy):
        # Below the width threshold "auto" must not even consult numpy.
        assert select_backend("auto", 8) == "int"
        assert select_backend("auto", 10_000) == "int"

    def test_wide_engine_without_numpy_raises(self, no_numpy, s27_netlist):
        from repro.netlist import compile_netlist

        with pytest.raises(SimulationError, match="numpy is not"):
            get_wide_engine(compile_netlist(s27_netlist))


class TestBatchFaults:
    """Sizing of the wide engine's fault batch."""

    def test_auto_batch_caps_at_max(self):
        # Tiny circuit, one word: budget allows far more than the cap.
        assert select_batch_faults(64, 100) == WIDE_MAX_BATCH_FAULTS

    def test_auto_batch_shrinks_with_footprint(self):
        # One fault's state just fits the budget -> batch of 1.
        n_slots = WIDE_BATCH_BUDGET_WORDS
        assert select_batch_faults(64, n_slots) == 1
        # Half the budget per fault -> batch of 2.
        assert select_batch_faults(64, n_slots // 2) == 2

    def test_auto_batch_accounts_for_pattern_words(self):
        n_slots = 250_000
        wide = select_batch_faults(4096, n_slots)   # 64 words
        narrow = select_batch_faults(256, n_slots)  # 4 words
        assert wide < narrow
        assert wide >= 1


class TestFaultSimulatorFallback:
    """An auto-backend simulator must keep working without numpy."""

    def _patterns(self, netlist, n, seed=7):
        rng = random.Random(seed)
        nets = list(netlist.inputs) + list(netlist.state_inputs)
        return [{net: rng.randint(0, 1) for net in nets} for _ in range(n)]

    def test_auto_simulates_without_numpy(self, no_numpy, s27_netlist):
        patterns = self._patterns(s27_netlist, 70)  # past the auto threshold
        faults = [StuckFault("G0", 1), StuckFault("G17", 0)]
        result = FaultSimulator(s27_netlist, backend="auto").simulate_stuck(
            faults, patterns
        )
        expected = FaultSimulator(s27_netlist, backend="int").simulate_stuck(
            faults, patterns
        )
        assert result.detected == expected.detected

    def test_explicit_numpy_simulator_fails_loudly(self, no_numpy,
                                                   s27_netlist):
        sim = FaultSimulator(s27_netlist, backend="numpy")
        patterns = self._patterns(s27_netlist, 70)
        with pytest.raises(SimulationError, match="numpy is not"):
            sim.simulate_stuck([StuckFault("G0", 1)], patterns)

"""Tests for scan-chain shift simulation."""

import pytest

from repro.errors import SimulationError
from repro.testapp import ScanChainSimulator, shift_power_study


class TestShiftIn:
    def test_pattern_lands_in_chain(self, s27_designs):
        sim = ScanChainSimulator(s27_designs["scan"])
        pattern = {"G5": 1, "G6": 0, "G7": 1}
        trace = sim.shift_in(pattern)
        assert trace.final_state == pattern
        assert trace.cycles == 3

    def test_arbitrary_patterns_land(self, s298_designs):
        import random

        rng = random.Random(8)
        design = s298_designs["scan"]
        sim = ScanChainSimulator(design)
        pattern = {ff: rng.randint(0, 1) for ff in design.scan_chain}
        assert sim.shift_in(pattern).final_state == pattern

    def test_plain_scan_burns_comb_energy(self, s298_designs):
        import random

        rng = random.Random(8)
        design = s298_designs["scan"]
        sim = ScanChainSimulator(design)
        pattern = {ff: rng.randint(0, 1) for ff in design.scan_chain}
        trace = sim.shift_in(pattern)
        assert trace.comb_toggles > 0
        assert trace.comb_energy > 0.0

    @pytest.mark.parametrize("style", ["enhanced", "mux", "flh"])
    def test_isolating_styles_zero_comb_activity(self, s298_designs, style):
        import random

        rng = random.Random(8)
        design = s298_designs[style]
        sim = ScanChainSimulator(design)
        pattern = {ff: rng.randint(0, 1) for ff in design.scan_chain}
        trace = sim.shift_in(pattern)
        assert trace.comb_toggles == 0
        assert trace.comb_energy == 0.0

    def test_chain_toggles_counted(self, s27_designs):
        sim = ScanChainSimulator(s27_designs["scan"])
        trace = sim.shift_in({"G5": 1, "G6": 1, "G7": 1})
        assert trace.chain_toggles > 0

    def test_initial_state_respected(self, s27_designs):
        sim = ScanChainSimulator(s27_designs["scan"])
        trace = sim.shift_in(
            {"G5": 0, "G6": 0, "G7": 0},
            initial_state={"G5": 1, "G6": 1, "G7": 1},
        )
        assert trace.final_state == {"G5": 0, "G6": 0, "G7": 0}


class TestShiftPowerStudy:
    def test_isolation_saves_energy(self, s298_designs):
        (study,) = shift_power_study(
            s298_designs["scan"], (s298_designs["flh"],), n_patterns=4
        )
        assert study.comb_energy_isolated == 0.0
        assert study.comb_energy_plain > 0.0
        assert 0.0 < study.saving_fraction < 1.0

    def test_enhanced_equally_effective(self, s298_designs):
        """Section IV: FLH is as effective as enhanced scan isolation."""
        flh, enh = shift_power_study(
            s298_designs["scan"],
            (s298_designs["flh"], s298_designs["enhanced"]),
            n_patterns=4,
        )
        assert flh.comb_energy_isolated == enh.comb_energy_isolated == 0.0
        assert flh.saving_fraction == pytest.approx(enh.saving_fraction)

    def test_mismatched_chains_rejected(self, s27_designs, s298_designs):
        with pytest.raises(SimulationError):
            shift_power_study(
                s27_designs["scan"], (s298_designs["flh"],), n_patterns=1
            )

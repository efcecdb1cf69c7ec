"""Tests for the Fig. 2 / Fig. 4 testbenches (short time windows)."""

import pytest

pytest.importorskip("numpy", reason="spice transient solver needs numpy")

from repro import units
from repro.spice import (
    DECAY_LEVEL,
    build_gated_chain,
    flh_hold,
    floating_decay,
    simulate,
)


@pytest.fixture(scope="module")
def decay_report():
    return floating_decay(t_stop=30 * units.NS)


@pytest.fixture(scope="module")
def hold_report():
    return flh_hold(t_stop=30 * units.NS)


class TestFloatingDecay:
    def test_out1_decays_below_600mv(self, decay_report):
        assert decay_report.decay_time is not None
        assert decay_report.decay_time < 100 * units.NS
        assert decay_report.decays_within_deadline

    def test_decay_happens_after_input_switch(self, decay_report):
        assert decay_report.decay_time > 2 * units.NS

    def test_state_eventually_corrupted(self, decay_report):
        # OUT2 should rise as OUT1 collapses (second inverter flips).
        assert decay_report.out2_final > 0.5

    def test_static_current_appears(self, decay_report):
        assert decay_report.peak_static_current > 1e-6


class TestFlhHold:
    def test_all_outputs_held(self, hold_report):
        assert hold_report.holds(margin=0.1)

    def test_out1_pinned_high(self, hold_report):
        assert hold_report.out1_min > 0.9 * units.VDD_70NM

    def test_out2_pinned_low(self, hold_report):
        assert hold_report.out2_max < 0.1 * units.VDD_70NM


class TestBuildChain:
    def test_keeper_adds_devices(self):
        plain = build_gated_chain(keeper=False)
        kept = build_gated_chain(keeper=True)
        assert len(kept.devices) == len(plain.devices) + 6

    def test_without_sleep_chain_functions(self):
        # Keep SLEEP de-asserted: the chain should behave as 3 inverters.
        from repro.spice import step_wave

        tb = build_gated_chain(
            keeper=False,
            sleep_at=1e9,          # never sleeps within the window
            input_high_at=1 * units.NS,
        )
        result = simulate(tb, 5 * units.NS, record_every=20 * units.PS)
        assert result.at("out1", 4.8 * units.NS) < 0.1
        assert result.at("out2", 4.8 * units.NS) > 0.9
        assert result.at("out3", 4.8 * units.NS) < 0.1

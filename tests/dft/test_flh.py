"""Tests for the First Level Hold transform."""

import pytest

from repro import units
from repro.dft import (
    FlhConfig,
    flh_delay_overlay,
    flh_extra_area,
    flh_power_overlay,
    gating_resistance,
    insert_flh,
    keeper_internal_energy,
    keeper_load,
)
from repro.errors import DftError
from repro.netlist import first_level_gates


class TestInsertFlh:
    def test_gates_exactly_first_level(self, s27_designs):
        flh = s27_designs["flh"]
        expected = set(first_level_gates(flh.netlist))
        assert set(flh.flh_gating) == expected

    def test_netlist_shared_not_copied(self, s27_designs):
        # FLH adds no gates: same gate count as the scan design.
        assert len(s27_designs["flh"].netlist) == len(
            s27_designs["scan"].netlist
        )

    def test_no_new_logic_levels(self, s27_designs, s298_designs):
        from repro.netlist import logic_depth

        for designs in (s27_designs, s298_designs):
            assert logic_depth(designs["flh"].netlist) == logic_depth(
                designs["scan"].netlist
            )

    def test_requires_plain_scan(self, s27_designs):
        with pytest.raises(DftError):
            insert_flh(s27_designs["flh"])

    def test_width_factor_from_config(self, s27_scan):
        config = FlhConfig(width_factors=(5.0,))
        flh = insert_flh(s27_scan, config)
        assert all(
            g.width_factor == 5.0 for g in flh.flh_gating.values()
        )

    def test_slack_fitting_prefers_small_widths(self, s298_designs):
        gating = s298_designs["flh"].flh_gating
        factors = [g.width_factor for g in gating.values()]
        smallest = FlhConfig().width_factors[0]
        # Most first-level gates have slack; the bulk should take the
        # smallest gating device.
        assert factors.count(smallest) > len(factors) / 2

    def test_critical_gates_marked(self, s298_designs):
        gating = s298_designs["flh"].flh_gating
        assert any(g.critical for g in gating.values())

    def test_describe_mentions_gating(self, s298_designs):
        assert "gated first-level gates" in s298_designs["flh"].describe()


class TestOverlays:
    def test_gating_resistance_inverse_width(self):
        assert gating_resistance(4.0) == pytest.approx(
            gating_resistance(2.0) / 2
        )

    def test_keeper_load_small(self, library):
        load = keeper_load(library)
        assert 0.0 < load < 2 * units.FF

    def test_keeper_internal_energy_small(self, library):
        energy = keeper_internal_energy(library)
        assert 0.0 < energy < 1e-15

    def test_delay_overlay_covers_all_gated(self, s298_designs):
        flh = s298_designs["flh"]
        overlay = flh_delay_overlay(flh)
        assert set(overlay.extra_resistance) == set(flh.flh_gating)
        assert set(overlay.extra_load) == set(flh.flh_gating)
        assert all(r > 0 for r in overlay.extra_resistance.values())

    def test_power_overlay_stacking_credit(self, s298_designs):
        flh = s298_designs["flh"]
        overlay = flh_power_overlay(flh)
        assert all(
            scale == units.STACKING_FACTOR
            for scale in overlay.leakage_scale.values()
        )
        assert overlay.extra_leakage > 0.0

    def test_power_overlay_custom_stacking(self, s298_designs):
        overlay = flh_power_overlay(s298_designs["flh"], stacking_factor=0.7)
        assert all(s == 0.7 for s in overlay.leakage_scale.values())

    def test_extra_area_scales_with_gate_count(self, s27_designs, s298_designs):
        small = flh_extra_area(s27_designs["flh"])
        large = flh_extra_area(s298_designs["flh"])
        assert small > 0.0
        assert large > small

    def test_overlays_reject_non_flh(self, s27_designs):
        with pytest.raises(DftError):
            flh_delay_overlay(s27_designs["scan"])
        with pytest.raises(DftError):
            flh_power_overlay(s27_designs["enhanced"])
        with pytest.raises(DftError):
            flh_extra_area(s27_designs["mux"])

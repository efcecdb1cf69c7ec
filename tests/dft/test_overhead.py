"""Tests for the Table I-III overhead accounting (paper-shape checks)."""

import pytest

from repro.dft import (
    area_breakdown,
    build_all_styles,
    compare_area,
    compare_delay,
    compare_power,
    design_delay,
    design_power,
    total_area,
)


class TestTotalArea:
    def test_holding_styles_bigger_than_scan(self, s298_designs):
        base = total_area(s298_designs["scan"])
        for style in ("enhanced", "mux", "flh"):
            assert total_area(s298_designs[style]) > base

    def test_area_positive(self, s27_designs):
        assert total_area(s27_designs["scan"]) > 0.0


class TestPaperShapes:
    """The qualitative results of Tables I-III on a mid-size circuit."""

    def test_area_ranking(self, s298_designs):
        cmp = compare_area(s298_designs)
        # Enhanced scan has the largest overhead, then MUX, then FLH
        # (s298 is a normal-fanout circuit).
        assert cmp.enhanced_pct > cmp.mux_pct > cmp.flh_pct > 0.0

    def test_area_s838_exception(self):
        from repro.bench import load_circuit

        designs = build_all_styles(load_circuit("s838"))
        cmp = compare_area(designs)
        # Very high state-input fanout: FLH can exceed the MUX method.
        assert cmp.flh_pct > cmp.mux_pct

    def test_delay_ranking(self, s298_designs):
        cmp = compare_delay(s298_designs)
        # MUX worst, FLH best.
        assert cmp.mux_pct > cmp.enhanced_pct > cmp.flh_pct > 0.0

    def test_delay_improvement_band(self, s298_designs):
        cmp = compare_delay(s298_designs)
        # Paper: ~71% average improvement of delay overhead vs enhanced.
        assert cmp.improvement_vs_enhanced > 40.0

    def test_power_flh_near_original(self, s298_designs):
        cmp = compare_power(s298_designs, n_vectors=50)
        assert abs(cmp.flh_pct) < 3.0
        assert cmp.enhanced_pct > 5.0
        assert cmp.mux_pct > 0.0
        assert cmp.enhanced_pct > cmp.mux_pct

    def test_power_improvement_band(self, s298_designs):
        cmp = compare_power(s298_designs, n_vectors=50)
        # Paper: ~90% average improvement of power overhead vs enhanced.
        assert cmp.improvement_vs_enhanced > 70.0


class TestComparisonMechanics:
    def test_as_row_keys(self, s27_designs):
        row = compare_area(s27_designs).as_row()
        for key in (
            "circuit", "enhanced_%", "mux_%", "flh_%",
            "improve_vs_enh_%", "improve_vs_mux_%",
        ):
            assert key in row

    def test_improvement_formula(self, s27_designs):
        cmp = compare_area(s27_designs)
        expected = (cmp.enhanced_pct - cmp.flh_pct) / cmp.enhanced_pct * 100
        assert cmp.improvement_vs_enhanced == pytest.approx(expected)

    def test_design_delay_matches_compare(self, s27_designs):
        base = design_delay(s27_designs["scan"])
        enh = design_delay(s27_designs["enhanced"])
        cmp = compare_delay(s27_designs)
        assert cmp.enhanced_pct == pytest.approx((enh - base) / base * 100)

    def test_design_power_deterministic(self, s27_designs):
        a = design_power(s27_designs["flh"], n_vectors=30, seed=7)
        b = design_power(s27_designs["flh"], n_vectors=30, seed=7)
        assert a.total == pytest.approx(b.total)

    def test_build_all_styles_keys(self, s27_designs):
        assert set(s27_designs) == {"scan", "enhanced", "mux", "flh"}


class TestAreaBreakdown:
    def test_sums_to_total(self, s298_designs):
        for style, design in s298_designs.items():
            breakdown = area_breakdown(design)
            assert sum(breakdown.values()) == pytest.approx(
                total_area(design)
            ), style

    def test_scan_has_no_dft_extras(self, s298_designs):
        breakdown = area_breakdown(s298_designs["scan"])
        assert breakdown["holding"] == 0.0
        assert breakdown["gating"] == 0.0
        assert breakdown["keeper"] == 0.0

    def test_enhanced_holding_share(self, s298_designs):
        breakdown = area_breakdown(s298_designs["enhanced"])
        assert breakdown["holding"] > 0.0
        assert breakdown["gating"] == 0.0

    def test_flh_gating_and_keeper_shares(self, s298_designs):
        breakdown = area_breakdown(s298_designs["flh"])
        assert breakdown["gating"] > 0.0
        assert breakdown["keeper"] > 0.0
        assert breakdown["holding"] == 0.0

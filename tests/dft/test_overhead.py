"""Tests for the Table I-III overhead accounting (paper-shape checks)."""

import dataclasses
from collections import Counter

import pytest

from repro.bench import load_circuit
from repro.dft import (
    DftDesign,
    area_breakdown,
    build_all_styles,
    compare_area,
    compare_delay,
    compare_power,
    design_delay,
    design_power,
    insert_mux_hold,
    insert_partial_enhanced,
    total_area,
)
from repro.dft.overhead import _hold_activity
from repro.netlist import clear_compile_cache
from repro.obs import Recorder, use_recorder
from repro.power import switching_activity
from repro.timing import analyze

#: The Table III run: the paper's 100 random vectors, the study seed.
VECTORS = 100
SEED = 2005


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
        assert cmp.enhanced_pct == (enh - base) / base * 100

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


def _pct(value, base):
    return (value - base) / base * 100.0


@pytest.fixture(scope="module", params=["s27", "s298", "s838"])
def hold_design_sets(request):
    """The four styles, and the same with a 50 % partial enhanced-scan
    design in the ``"enhanced"`` slot."""
    full = build_all_styles(load_circuit(request.param))
    partial = insert_partial_enhanced(full["scan"], fraction=0.5)
    return [full, dict(full, enhanced=partial)]


def _assert_per_design(designs):
    """compare_delay/compare_power equal the per-design path exactly."""
    delay = compare_delay(designs)
    base = design_delay(designs["scan"])
    assert delay.baseline == base
    assert delay.enhanced_pct == _pct(design_delay(designs["enhanced"]), base)
    assert delay.mux_pct == _pct(design_delay(designs["mux"]), base)
    assert delay.flh_pct == _pct(design_delay(designs["flh"]), base)

    power = compare_power(designs, n_vectors=VECTORS, seed=SEED)
    base = design_power(designs["scan"], VECTORS, SEED).total
    assert power.baseline == base
    for style in ("enhanced", "mux", "flh"):
        alone = design_power(designs[style], VECTORS, SEED).total
        assert getattr(power, f"{style}_pct") == _pct(alone, base), style


class TestSharedScanAnalysis:
    """The hold designs take the scan design's timing and activity; the
    per-design analyses are the oracle."""

    def test_comparisons_equal_per_design_path(self, hold_design_sets):
        for designs in hold_design_sets:
            _assert_per_design(designs)

    def test_derived_activity_equals_simulation(self, hold_design_sets):
        for designs in hold_design_sets:
            scan = designs["scan"]
            activity = switching_activity(scan.netlist, VECTORS, SEED)
            for style in ("enhanced", "mux"):
                design = designs[style]
                derived = _hold_activity(scan, design, activity)
                assert derived is not None, style
                assert derived == switching_activity(
                    design.netlist, VECTORS, SEED
                ), style

    def test_copy_of_a_copy_is_simulated(self, hold_design_sets):
        designs = hold_design_sets[0]
        enhanced = designs["enhanced"]
        # A copy of the enhanced netlist records no edits against the
        # scan netlist.
        copied = dataclasses.replace(
            enhanced, netlist=enhanced.netlist.copy()
        )
        scan = designs["scan"]
        activity = switching_activity(scan.netlist, VECTORS, SEED)
        assert _hold_activity(scan, copied, activity) is None
        _assert_per_design(dict(designs, enhanced=copied))

    @pytest.mark.parametrize("func, cell, buffers_other", [
        ("BUF", "MUX2_X2", True),    # a buffer of another flip-flop
        ("NOT", "INV_X2", False),    # an inverter of its own
    ])
    def test_hold_not_a_buf_of_its_flip_flop_is_simulated(
            self, hold_design_sets, func, cell, buffers_other):
        designs = hold_design_sets[0]
        scan = designs["scan"]
        activity = switching_activity(scan.netlist, VECTORS, SEED)
        # One element behind ``held``.  Fed by a flip-flop of different
        # activity, or inverting its sinks' input, it breaks the
        # derivation from ``held``'s activity.
        held = scan.scan_chain[0]
        source = held
        if buffers_other:
            source = next(ff for ff in scan.scan_chain
                          if activity[ff] != activity[held])
        netlist = scan.netlist.copy()
        hold = netlist.fresh_net(f"{held}_mux")
        sinks = netlist.fanout(held)
        netlist.add(hold, func, (source,), cell=cell)
        netlist.redirect_fanout(held, hold, only=sinks)
        mux = DftDesign(netlist, "mux", scan.library, scan.scan_chain,
                        hold_elements=(hold,), held_flip_flops=(held,))
        assert _hold_activity(scan, mux, activity) is None
        _assert_per_design(dict(designs, mux=mux))

    def test_further_edit_is_simulated(self, hold_design_sets):
        designs = hold_design_sets[0]
        scan = designs["scan"]
        mux = insert_mux_hold(scan)
        # Still a copy of the scan netlist, but one sink of a hold
        # element now reads a primary input instead: its net no longer
        # keeps its scan waveform.
        netlist = mux.netlist
        hold = mux.hold_elements[0]
        sink = min(netlist.fanout(hold))
        pin = netlist.gate(sink).fanin.index(hold)
        netlist.rewire_pin(sink, pin, netlist.inputs[0])
        activity = switching_activity(scan.netlist, VECTORS, SEED)
        assert _hold_activity(scan, mux, activity) is None
        _assert_per_design(dict(designs, mux=mux))

    def test_one_compile_and_one_activity_run(self, s298_netlist,
                                              monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_compile_cache()
        rec = Recorder()
        with use_recorder(rec):
            designs = build_all_styles(s298_netlist)
            compare_delay(designs)
            compare_power(designs, n_vectors=VECTORS, seed=SEED)
        spans = Counter(e["name"] for e in rec.events if e["ph"] == "X")
        assert spans["compile.netlist"] == 1
        assert spans["power.activity"] == 1
        assert rec.counter("sta.retimed") == 2
        assert rec.counter("power.activity_shared") == 2

    def test_one_scan_timing(self, s298_netlist):
        # Table II's three overlay-free timings of the scan netlist --
        # insert_flh's sizing, the crit_levels analyze and compare_delay
        # -- are one pass and two reads of the netlist's memo.
        rec = Recorder()
        with use_recorder(rec):
            designs = build_all_styles(s298_netlist)
            analyze(designs["scan"].netlist, designs["scan"].library)
            compare_delay(designs)
        assert rec.counter("sta.timing_shared") == 2

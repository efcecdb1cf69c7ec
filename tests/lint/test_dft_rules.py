"""Each DF/FL rule is seeded with its violation and must fire by ID.

The fixtures build real designs with the real transforms, then tamper
with one invariant at a time -- strip one keeper, gate a second-level
gate, break the scan chain -- and assert the exact rule ID fires.
"""

from dataclasses import replace

import pytest

from repro.bench import s27
from repro.dft import (
    DftDesign,
    FlhGating,
    insert_enhanced_scan,
    insert_flh,
    insert_partial_enhanced,
    insert_scan,
)
from repro.errors import DftError
from repro.lint import lint_design, self_check
from repro.netlist import first_level_gates
from repro.synth import map_netlist


@pytest.fixture()
def scan_design():
    return insert_scan(map_netlist(s27()))


@pytest.fixture()
def flh_design(scan_design):
    return insert_flh(scan_design)


def rule_ids(report):
    return {diag.rule_id for diag in report.diagnostics}


class TestChainRules:
    def test_clean_designs_lint_clean(self, s27_designs):
        for design in s27_designs.values():
            report = lint_design(design, enable=["dft"])
            assert report.diagnostics == [], design.style

    def test_df001_missing_flip_flop(self, scan_design):
        broken = replace(scan_design, scan_chain=scan_design.scan_chain[1:])
        report = lint_design(broken)
        assert "DF001" in rule_ids(report)

    def test_df002_chain_entry_not_a_flip_flop(self, scan_design):
        chain = scan_design.scan_chain[:-1] + ("G17",)
        broken = replace(scan_design, scan_chain=chain)
        report = lint_design(broken)
        assert "DF002" in rule_ids(report)

    def test_df002_chain_entry_unknown(self, scan_design):
        chain = scan_design.scan_chain + ("phantom",)
        broken = replace(scan_design, scan_chain=chain)
        report = lint_design(broken)
        assert "DF002" in rule_ids(report)

    def test_df003_duplicated_flip_flop(self, scan_design):
        chain = scan_design.scan_chain + (scan_design.scan_chain[0],)
        broken = replace(scan_design, scan_chain=chain)
        report = lint_design(broken)
        assert "DF003" in rule_ids(report)

    def test_df004_out_of_order_chain(self, scan_design):
        expected = scan_design.scan_chain
        shuffled = tuple(reversed(expected))
        broken = replace(scan_design, scan_chain=shuffled)
        report = lint_design(broken, expected_chain=expected)
        assert "DF004" in rule_ids(report)
        # Matching order: no finding.
        report = lint_design(scan_design, expected_chain=expected)
        assert "DF004" not in rule_ids(report)


class TestFlhRules:
    def test_fl001_ungated_first_level_gate(self, flh_design):
        gating = dict(flh_design.flh_gating)
        victim = sorted(gating)[0]
        del gating[victim]
        broken = replace(flh_design, flh_gating=gating)
        report = lint_design(broken)
        assert "FL001" in rule_ids(report)
        diag = next(d for d in report.errors if d.rule_id == "FL001")
        assert diag.location.gate == victim

    def test_fl002_stripped_keeper(self, flh_design):
        gating = dict(flh_design.flh_gating)
        victim = sorted(gating)[0]
        gating[victim] = replace(gating[victim], keeper=False)
        broken = replace(flh_design, flh_gating=gating)
        report = lint_design(broken)
        assert "FL002" in rule_ids(report)

    def test_fl003_gated_second_level_gate(self, flh_design):
        netlist = flh_design.netlist
        first = set(first_level_gates(netlist))
        second = next(
            g.name for g in netlist.combinational_gates()
            if g.name not in first
        )
        gating = dict(flh_design.flh_gating)
        gating[second] = FlhGating(second, 2.0)
        broken = replace(flh_design, flh_gating=gating)
        report = lint_design(broken)
        assert "FL003" in rule_ids(report)

    def test_fl003_gated_missing_gate(self, flh_design):
        gating = dict(flh_design.flh_gating)
        gating["phantom"] = FlhGating("phantom", 2.0)
        broken = replace(flh_design, flh_gating=gating)
        report = lint_design(broken)
        assert "FL003" in rule_ids(report)

    def test_fl004_absurd_width_factor(self, flh_design):
        gating = dict(flh_design.flh_gating)
        victim = sorted(gating)[0]
        gating[victim] = replace(gating[victim], width_factor=-1.0)
        broken = replace(flh_design, flh_gating=gating)
        report = lint_design(broken)
        assert "FL004" in rule_ids(report)
        assert not any(d.rule_id == "FL004" for d in report.errors)


class TestHoldingRules:
    def test_fl005_flip_flop_bypasses_hold_latch(self, scan_design):
        enhanced = insert_enhanced_scan(scan_design)
        netlist = enhanced.netlist.copy()
        ff = enhanced.held_flip_flops[0]
        element = enhanced.hold_elements[0]
        # Rewire one sink of the hold latch back to the raw flip-flop.
        sink_name = sorted(netlist.fanout(element))[0]
        sink = netlist.gate(sink_name)
        fanin = [ff if net == element else net for net in sink.fanin]
        netlist.replace_gate(sink.with_fanin(fanin))
        broken = replace(enhanced, netlist=netlist)
        report = lint_design(broken)
        assert "FL005" in rule_ids(report)
        diag = next(d for d in report.errors if d.rule_id == "FL005")
        assert ff in diag.message

    def test_fl005_hold_elements_not_parallel(self, scan_design):
        enhanced = insert_enhanced_scan(scan_design)
        broken = replace(enhanced, hold_elements=enhanced.hold_elements[:-1])
        report = lint_design(broken)
        assert "FL005" in rule_ids(report)

    def test_fl006_held_flip_flop_not_on_chain(self, scan_design):
        partial = insert_partial_enhanced(scan_design, fraction=0.5)
        broken = replace(
            partial,
            held_flip_flops=partial.held_flip_flops + ("phantom",),
            hold_elements=partial.hold_elements + ("phantom_hold",),
        )
        report = lint_design(broken)
        assert "FL006" in rule_ids(report)

    def test_partial_enhanced_self_checks_clean(self, scan_design):
        partial = insert_partial_enhanced(scan_design, fraction=0.5)
        report = lint_design(partial, enable=["dft"])
        assert report.diagnostics == []


class TestSelfCheck:
    def test_self_check_passes_on_real_transform(self, flh_design):
        self_check(flh_design)  # must not raise

    def test_self_check_raises_on_tampered_design(self, flh_design):
        gating = dict(flh_design.flh_gating)
        victim = sorted(gating)[0]
        gating[victim] = replace(gating[victim], keeper=False)
        broken = replace(flh_design, flh_gating=gating)
        with pytest.raises(DftError) as err:
            self_check(broken)
        assert "FL002" in str(err.value)

    def test_design_without_chain_bookkeeping(self):
        # A bare unscanned design must not trip the DFT pack.
        design = DftDesign(netlist=s27(), style="none")
        report = lint_design(design, enable=["dft"])
        assert report.diagnostics == []

"""Static-analysis integration in the ATPG flow and SCOAP-guided PODEM."""

from dataclasses import replace

import pytest

from repro.analysis import TestabilityAnalyzer
from repro.bench import load_circuit, s27
from repro.fault import (
    AtpgFlow,
    AtpgFlowConfig,
    FaultSimulator,
    Podem,
    all_stuck_faults,
    collapse_stuck,
)
from repro.fault.atpg_flow import VIA_STATIC


@pytest.fixture(scope="module")
def s298_netlist():
    return load_circuit("s298")


@pytest.fixture(scope="module")
def s298_flows(s298_netlist):
    """The same fault list through the plain and the analysis flow."""
    faults = collapse_stuck(s298_netlist, all_stuck_faults(s298_netlist))
    base = AtpgFlowConfig(n_random_patterns=256, batch_size=64, seed=11)
    plain = AtpgFlow(s298_netlist, base).run(faults)
    analysis = AtpgFlow(
        s298_netlist,
        AtpgFlowConfig(n_random_patterns=256, batch_size=64, seed=11,
                       use_analysis=True),
    ).run(faults)
    return plain, analysis


class TestFlowIntegration:
    def test_coverage_pinned(self, s298_flows):
        plain, analysis = s298_flows
        assert analysis.coverage == plain.coverage

    def test_static_pruning_visible_in_summary(self, s298_flows):
        plain, analysis = s298_flows
        assert plain.summary()["untestable_static"] == 0
        assert analysis.summary()["untestable_static"] > 0
        summary = analysis.summary()
        assert summary["untestable"] == (summary["untestable_static"]
                                         + summary["untestable_podem"])

    def test_pruned_faults_marked_untestable(self, s298_netlist, s298_flows):
        _, analysis = s298_flows
        proven = TestabilityAnalyzer(s298_netlist).untestable_stuck()
        statically = {fault for fault, via in analysis.untestable_via.items()
                      if via == VIA_STATIC}
        assert statically
        assert statically <= set(proven)
        assert statically <= set(analysis.untestable_faults)

    def test_fewer_podem_calls_with_analysis(self, s298_flows):
        plain, analysis = s298_flows
        assert analysis.podem_calls < plain.podem_calls

    def test_detected_tests_still_verified(self, s298_netlist, s298_flows):
        _, analysis = s298_flows
        sim = FaultSimulator(s298_netlist)
        tests = analysis.tests
        assert tests
        result = sim.simulate_stuck(analysis.detected_faults, tests)
        assert all(result.detected[f] for f in analysis.detected_faults)

    def test_s5378_search_effort_falls_3x(self):
        """Every 12th collapsed s5378 fault that is either proven
        untestable or detected by both unguided and guided PODEM, so
        guidance can change only effort: the analysis flow keeps the
        coverage and cuts backtracks plus aborts at least 3x (1961 to
        140 when this was written)."""
        netlist = load_circuit("s5378")
        faults = collapse_stuck(netlist, all_stuck_faults(netlist))[::12]
        analyzer = TestabilityAnalyzer(netlist, style="scan")
        untestable = analyzer.untestable_stuck()
        unguided = Podem(netlist, 60)
        guided = Podem(netlist, 60, guidance=analyzer.scores)
        workload = [f for f in faults
                    if f in untestable or (unguided.generate(f).detected
                                           and guided.generate(f).detected)]
        config = AtpgFlowConfig(n_random_patterns=2048, batch_size=256,
                                max_idle_batches=4, backtrack_limit=60)
        plain = AtpgFlow(netlist, config).run(workload).summary()
        assisted = AtpgFlow(netlist, replace(config, use_analysis=True)
                            ).run(workload).summary()
        assert assisted["coverage"] == plain["coverage"]
        assert (plain["backtracks"] + plain["aborted"]
                >= 3 * max(assisted["backtracks"] + assisted["aborted"], 1))


class TestGuidedPodem:
    def test_guided_results_sound(self, s298_netlist):
        """Everything guided PODEM claims to detect must simulate."""
        scores = TestabilityAnalyzer(s298_netlist).scores
        guided = Podem(s298_netlist, backtrack_limit=100, guidance=scores)
        sim = FaultSimulator(s298_netlist)
        faults = collapse_stuck(
            s298_netlist, all_stuck_faults(s298_netlist))[::5]
        detected = 0
        for fault in faults:
            result = guided.generate(fault)
            assert result.status in ("detected", "untestable", "aborted")
            if result.detected:
                detected += 1
                check = sim.simulate_stuck([fault], [result.test])
                assert check.detected[fault], str(fault)
        assert detected > 0

    def test_unguided_default_unchanged(self):
        """``guidance=None`` must reproduce the historical search."""
        netlist = s27()
        faults = collapse_stuck(netlist, all_stuck_faults(netlist))
        plain = [Podem(netlist, backtrack_limit=50).generate(f)
                 for f in faults]
        defaulted = [Podem(netlist, 50, guidance=None).generate(f)
                     for f in faults]
        for a, b in zip(plain, defaulted):
            assert (a.status, a.backtracks, a.test) == \
                (b.status, b.backtracks, b.test)

    def test_guided_agrees_on_outcomes_for_small_circuit(self):
        netlist = s27()
        scores = TestabilityAnalyzer(netlist).scores
        faults = collapse_stuck(netlist, all_stuck_faults(netlist))
        for fault in faults:
            plain = Podem(netlist, backtrack_limit=200).generate(fault)
            guided = Podem(netlist, backtrack_limit=200,
                           guidance=scores).generate(fault)
            # At a generous limit both searches are complete: the
            # verdict (not the vector) must agree.
            assert plain.status == guided.status, str(fault)

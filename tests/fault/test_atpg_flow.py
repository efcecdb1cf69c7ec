"""Tests for the two-phase fault-dropping ATPG pipeline and the
compiled three-valued kernels it rides on.

The two pinning suites here are the contract the perf work rests on:

* ``TestEval3Identity`` -- the compiled two-word kernels
  (``eval3_into`` and the worklist ``propagate3`` with its held-bits
  rule) must be bit-identical to the scalar dict reference
  (``repro.perf.reference.ReferenceThreeValuedSimulator``) on every
  catalog circuit;
* ``TestFlowMatchesNaive`` -- the pipeline's final coverage must equal
  the naive per-fault PODEM path on every catalog circuit (exact, not
  approximate) over workloads where neither side aborts.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import replace

import pytest

import repro

from repro.bench import available_circuits, load_circuit
from repro.errors import SimulationError
from repro.fault import (
    AtpgFlow,
    AtpgFlowConfig,
    FaultSimulator,
    all_stuck_faults,
    collapse_stuck,
    generate_tests,
    run_flow,
)
from repro.fault.atpg_flow import VIA_DROP, VIA_PODEM, VIA_RANDOM, atpg_main
from repro.fault.backends import RACE_BUDGET_FACTOR, podem_portfolio
from repro.fault.podem import X
from repro.netlist import Netlist, compile_netlist
from repro.perf.reference import ReferenceThreeValuedSimulator

CATALOG = available_circuits()


def _sampled_faults(netlist, target=24):
    faults = collapse_stuck(netlist, all_stuck_faults(netlist))
    return faults[::max(1, len(faults) // target)]


def _random_assignment(compiled, rng, three_valued=True):
    choices = (0, 1, X) if three_valued else (0, 1)
    return {
        net: rng.choice(choices)
        for net in compiled.names[:compiled.n_prefix]
    }


def _pack_assignments(compiled, assignments):
    """Two-word arrays holding one bit lane per assignment."""
    v0 = compiled.new_values()
    v1 = compiled.new_values()
    for i, assignment in enumerate(assignments):
        bit = 1 << i
        for slot in range(compiled.n_prefix):
            v = assignment[compiled.names[slot]]
            if v == 0:
                v0[slot] |= bit
            elif v == 1:
                v1[slot] |= bit
    return v0, v1


class TestEval3Identity:
    """Compiled two-word kernels vs the scalar dict reference."""

    @pytest.mark.parametrize("name", CATALOG)
    def test_eval3_into_matches_reference(self, name):
        netlist = load_circuit(name)
        compiled = compile_netlist(netlist)
        reference = ReferenceThreeValuedSimulator(netlist)
        rng = random.Random(3)
        n_patterns = 4
        assignments = [
            _random_assignment(compiled, rng) for _ in range(n_patterns)
        ]
        v0, v1 = _pack_assignments(compiled, assignments)
        compiled.eval3_into(v0, v1, (1 << n_patterns) - 1)
        for i, assignment in enumerate(assignments):
            expected = reference.simulate(assignment)
            bit = 1 << i
            for slot, net in enumerate(compiled.names):
                got = 0 if v0[slot] & bit else (1 if v1[slot] & bit else X)
                assert got == expected[net], (
                    f"{name}: net {net!r} pattern {i}"
                )

    @pytest.mark.parametrize("name", CATALOG)
    def test_propagate3_matches_full_eval(self, name):
        """Incremental worklist re-implication == from-scratch eval.

        Starting from the propagated all-X state, assign the inputs one
        at a time through ``propagate3`` (collecting a trail); the end
        state must be bit-identical to one full ``eval3_into`` pass
        over the complete assignment, and unwinding the trail must
        restore the all-X state exactly.
        """
        netlist = load_circuit(name)
        compiled = compile_netlist(netlist)
        rng = random.Random(5)
        assignment = _random_assignment(compiled, rng, three_valued=False)

        v0 = compiled.new_values()
        v1 = compiled.new_values()
        compiled.eval3_into(v0, v1, 1)  # consistent all-X start state
        start = (list(v0), list(v1))

        trail = []
        for slot in range(compiled.n_prefix):
            value = assignment[compiled.names[slot]]
            trail.append((slot, v0[slot], v1[slot]))
            v0[slot] = 0 if value else 1
            v1[slot] = 1 if value else 0
            compiled.propagate3(v0, v1, 1, (slot,), trail=trail)

        f0, f1 = _pack_assignments(compiled, [assignment])
        compiled.eval3_into(f0, f1, 1)
        assert v0 == f0 and v1 == f1, name

        for slot, old0, old1 in reversed(trail):
            v0[slot] = old0
            v1[slot] = old1
        assert (v0, v1) == start, f"{name}: trail undo incomplete"

    def test_propagate3_full_hold_freezes_fault_site(self, s27_netlist):
        """``held=mask`` never changes the ``hold`` position, and
        never records it on the trail."""
        compiled = compile_netlist(s27_netlist)
        site = compiled.index["G11"]
        site_pos = site - compiled.n_prefix
        v0 = compiled.new_values()
        v1 = compiled.new_values()
        compiled.eval3_into(v0, v1, 1)
        # Force the site to 1 (a sa1 machine on its own).
        v0[site], v1[site] = 0, 1
        compiled.propagate3(v0, v1, 1, (site,), hold=site_pos, held=1)
        assert (v0[site], v1[site]) == (0, 1)
        trail = []
        for slot in range(compiled.n_prefix):
            v0[slot], v1[slot] = 1, 0  # drive every input to 0
            compiled.propagate3(v0, v1, 1, (slot,), hold=site_pos, held=1,
                                trail=trail)
        assert (v0[site], v1[site]) == (0, 1)
        assert site not in {slot for slot, _, _ in trail}

    def test_propagate3_partial_hold_keeps_only_held_bits(self,
                                                          s27_netlist):
        """``held=2`` on a packed pair: bit 0 (fault-free) follows the
        fanins and bit 1 (faulty) keeps the forced value, as PODEM
        packs them."""
        compiled = compile_netlist(s27_netlist)
        site = compiled.index["G11"]
        site_pos = site - compiled.n_prefix
        v0 = compiled.new_values()
        v1 = compiled.new_values()
        compiled.eval3_into(v0, v1, 3)
        v1[site] = 2  # faulty machine: G11 stuck-at-1
        compiled.propagate3(v0, v1, 3, (site,), hold=site_pos, held=2)
        for slot in range(compiled.n_prefix):
            v0[slot], v1[slot] = 3, 0  # every input 0 in both machines
            compiled.propagate3(v0, v1, 3, (slot,), hold=site_pos, held=2)
        # All-zero inputs make the fault-free G11 0, opposite the stuck 1.
        good0 = compiled.new_values()
        good1 = compiled.new_values()
        for slot in range(compiled.n_prefix):
            good0[slot] = 1
        compiled.eval3_into(good0, good1, 1)
        assert (good0[site], good1[site]) == (1, 0)
        assert [v & 1 for v in v0] == good0
        assert [v & 1 for v in v1] == good1
        assert (v0[site] >> 1, v1[site] >> 1) == (0, 1)


class TestFlowMatchesNaive:
    """Pipeline coverage == naive per-fault PODEM, on every circuit."""

    @pytest.mark.parametrize("name", CATALOG)
    def test_equal_coverage(self, name):
        netlist = load_circuit(name)
        sample = _sampled_faults(netlist)
        naive = generate_tests(netlist, sample, backtrack_limit=100)
        # Restrict to faults naive PODEM resolves (no aborts): ordering
        # never changes which faults phase 2 targets, so over this
        # workload the flow must reach the identical outcome per fault.
        resolved = [r for r in naive if r.status != "aborted"]
        workload = [r.fault for r in resolved]
        if not workload:
            pytest.skip(f"{name}: every sampled fault aborts")
        flow = run_flow(
            netlist, workload,
            AtpgFlowConfig(n_random_patterns=64, backtrack_limit=100),
        )
        assert set(flow.detected_faults) == {
            r.fault for r in resolved if r.detected
        }, name
        assert set(flow.untestable_faults) == {
            r.fault for r in resolved if r.status == "untestable"
        }, name
        naive_coverage = (
            sum(1 for r in resolved if r.detected) / len(workload)
        )
        assert flow.coverage == pytest.approx(naive_coverage, abs=0), name


class TestAtpgFlow:
    def test_config_rejects_bad_batch_size(self):
        with pytest.raises(ValueError):
            AtpgFlowConfig(batch_size=0)

    @pytest.mark.parametrize("kwargs", [
        {"n_random_patterns": -5},
        {"max_idle_batches": 0},
        {"max_idle_batches": -1},
    ])
    def test_config_rejects_silently_skipped_phase1(self, kwargs):
        """Both values used to skip phase 1 without a word."""
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            AtpgFlowConfig(**kwargs)

    def test_config_accepts_phase1_edges(self):
        AtpgFlowConfig(n_random_patterns=0)
        AtpgFlowConfig(max_idle_batches=1)

    def test_config_rejects_negative_backtrack_limit(self):
        with pytest.raises(ValueError, match="backtrack_limit"):
            AtpgFlowConfig(backtrack_limit=-1)

    def test_race_serial_changes_only_aborts(self):
        """Racing may rescue aborts but never un-detect anything."""
        netlist = load_circuit("s344")
        base = AtpgFlowConfig(n_random_patterns=64, backtrack_limit=5,
                              backend="int")
        plain = AtpgFlow(netlist, base).run()
        raced = AtpgFlow(netlist, replace(base, race=True)).run()
        assert len(raced.detected_faults) >= len(plain.detected_faults)
        assert (len(raced.aborted_faults)
                <= len(plain.aborted_faults))

    def test_s298_run_does_not_import_numpy(self):
        """s298's batches are one word wide, so the flow never reaches
        the numpy engine, and never imports numpy either."""
        code = ("import sys\n"
                "from repro.bench import load_circuit\n"
                "from repro.fault.atpg_flow import AtpgFlow\n"
                "AtpgFlow(load_circuit('s298')).run()\n"
                "print('numpy' in sys.modules)\n")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}).stdout
        assert out.split() == ["False"]


    def test_s27_full_coverage_and_tests_verify(self, s27_netlist):
        flow = AtpgFlow(s27_netlist).run()
        assert flow.coverage == 1.0
        # Every kept test really detects something: replaying the test
        # set must reach the same coverage.
        faults = collapse_stuck(s27_netlist, all_stuck_faults(s27_netlist))
        sim = FaultSimulator(s27_netlist)
        replay = sim.simulate_stuck(faults, flow.tests)
        assert replay.coverage == 1.0

    def test_random_phase_retires_most_faults(self, s298_netlist):
        flow = AtpgFlow(s298_netlist).run()
        summary = flow.summary()
        assert summary["detected_random"] > summary["detected_podem"]
        assert flow.n_random_simulated > 0
        # PODEM only ever ran on random-phase survivors.
        assert flow.podem_calls < flow.n_faults

    def test_zero_random_budget_goes_straight_to_podem(self, s27_netlist):
        flow = AtpgFlow(
            s27_netlist, AtpgFlowConfig(n_random_patterns=0)
        ).run()
        assert flow.n_random_simulated == 0
        assert flow.coverage == 1.0
        via = set(flow.detected_via.values())
        assert VIA_RANDOM not in via
        assert via <= {VIA_PODEM, VIA_DROP}
        # Cross-dropping means far fewer PODEM calls than faults.
        assert VIA_DROP in via

    def test_dropping_never_loses_coverage(self, s298_netlist):
        """With a starvation-level backtrack limit the flow can only do
        better than naive PODEM: aborted faults stay droppable."""
        sample = _sampled_faults(s298_netlist, target=40)
        naive = generate_tests(s298_netlist, sample, backtrack_limit=1)
        naive_coverage = sum(1 for r in naive if r.detected) / len(sample)
        flow = run_flow(
            s298_netlist, sample, AtpgFlowConfig(backtrack_limit=1)
        )
        assert flow.coverage >= naive_coverage
        for fault in flow.aborted_faults:
            assert flow.status[fault] == "aborted"
            assert fault not in flow.detected_via

    def test_status_covers_every_fault(self, s344_netlist):
        sample = _sampled_faults(s344_netlist, target=40)
        flow = run_flow(s344_netlist, sample)
        assert set(flow.status) == set(sample)
        assert set(flow.status.values()) <= {
            "detected", "untestable", "aborted"
        }

    def test_summary_is_consistent(self, s27_netlist):
        flow = AtpgFlow(s27_netlist).run()
        summary = flow.summary()
        assert summary["detected"] == (
            summary["detected_random"] + summary["detected_podem"]
            + summary["detected_drop"]
        )
        assert summary["n_faults"] == (
            summary["detected"] + summary["untestable"]
            + summary["aborted"]
        )
        json.dumps(summary)  # JSON-friendly by contract


class TestPodemPortfolio:
    def test_no_race_is_single_base_policy(self):
        (base,) = podem_portfolio(60, base_guided=False, race=False)
        assert base.guided is False
        assert base.resolve_limit(60) == 60

    def test_no_race_guided_base(self):
        (base,) = podem_portfolio(60, base_guided=True, race=False)
        assert base.guided is True

    def test_race_order_and_budgets(self):
        policies = podem_portfolio(60, base_guided=False, race=True)
        assert [p.guided for p in policies] == [False, True, True]
        assert policies[0].resolve_limit(60) == 60
        assert policies[1].resolve_limit(60) == 60
        assert policies[2].resolve_limit(60) == RACE_BUDGET_FACTOR * 60
        # The portfolio is a pure function of its arguments.
        assert policies == podem_portfolio(60, base_guided=False,
                                           race=True)

    def test_race_flips_diversity_policy(self):
        policies = podem_portfolio(60, base_guided=True, race=True)
        assert [p.guided for p in policies] == [True, False, True]

    def test_negative_limit_rejected(self):
        with pytest.raises(SimulationError):
            podem_portfolio(-1)


class TestCli:
    def test_text_output(self, capsys):
        assert atpg_main(["s27", "--random-patterns", "32"]) == 0
        out = capsys.readouterr().out
        assert "s27: coverage" in out

    def test_json_output(self, capsys):
        assert atpg_main(["s27", "--json"]) == 0
        record = json.loads(capsys.readouterr().out.strip())
        assert record["circuit"] == "s27"
        assert record["coverage"] == 1.0

    def test_no_dominance_flag(self, capsys):
        assert atpg_main(["s27", "--no-dominance", "--json"]) == 0
        record = json.loads(capsys.readouterr().out.strip())
        assert record["coverage"] == 1.0

    def test_negative_random_patterns_is_usage_error(self, capsys):
        """A usage error (exit 2), not a run that skips phase 1."""
        with pytest.raises(SystemExit) as exc:
            atpg_main(["s27", "--random-patterns", "-5"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "n_random_patterns" in captured.err
        assert captured.out == ""


class TestFlowArtifact:
    def test_artifact_bytes_are_deterministic(self, s27_netlist):
        from repro.fault import flow_artifact

        config = AtpgFlowConfig(n_random_patterns=32)
        one = flow_artifact("s27", config,
                            AtpgFlow(load_circuit("s27"), config).run())
        two = flow_artifact("s27", config,
                            AtpgFlow(load_circuit("s27"), config).run())
        assert one == two
        payload = json.loads(one)
        assert payload["schema"] == 3
        assert payload["circuit"] == "s27"
        assert one.endswith(b"\n")

    def test_cli_artifact_flag_writes_canonical_bytes(self, tmp_path,
                                                      capsys):
        from repro.fault import flow_artifact

        out = tmp_path / "s27.artifact.json"
        assert atpg_main(["s27", "--random-patterns", "32",
                          "--artifact", str(out)]) == 0
        capsys.readouterr()
        config = AtpgFlowConfig(n_random_patterns=32)
        expected = flow_artifact(
            "s27", config, AtpgFlow(load_circuit("s27"), config).run())
        assert out.read_bytes() == expected

    def test_cli_artifact_requires_single_circuit(self, capsys):
        with pytest.raises(SystemExit):
            atpg_main(["s27", "s298", "--artifact", "/tmp/x.json"])
        capsys.readouterr()

    #: SHA-256 of the s298 artifact per config.  ``1`` is the default
    #: config; the others cover the SCOAP-guided objective and
    #: backtrace (``analysis``) and the policy portfolio (``race``).
    #: Under ``backend="auto"`` s298 runs on the int kernels, so the
    #: digests hold with or without numpy and under any PYTHONHASHSEED.
    ARTIFACT_SHA256 = {
        "1": (
            {},
            "b1704710868156c18598ef28aa33ecb170cb9d879fbb276ad503507615043912",
        ),
        "analysis": (
            {"use_analysis": True},
            "71032941954926cc96018ee8b834d1c9be17a935ce2fbc2e5f2fd4d78788b1a5",
        ),
        "race": (
            {"race": True},
            "282e7d163dc5bf379453e3219c3f6e88a193ad158f1614a987bd5f6dcbefc815",
        ),
    }

    @pytest.mark.parametrize("variant", list(ARTIFACT_SHA256))
    def test_s298_artifact_digest_is_pinned(self, variant):
        from repro.fault import flow_artifact

        options, expected = self.ARTIFACT_SHA256[variant]
        config = AtpgFlowConfig(**options)
        result = AtpgFlow(load_circuit("s298"), config).run()
        digest = hashlib.sha256(
            flow_artifact("s298", config, result)).hexdigest()
        assert digest == expected


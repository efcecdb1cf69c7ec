"""Tests for parallel hard-fault test generation.

The load-bearing property is the determinism contract: the parallel
phase-2 coordinator (speculative PODEM fan-out over the worker pool,
commits in strict serial target order) must produce artifacts
*byte-identical* to the serial walk -- same test list in the same
order, same status/via dict contents **and insertion order**, same
summary counters -- at every ``processes`` value, racing included.
Around it: the cgroup-quota-aware ``usable_cores``, the content-hash
guidance handshake, and worker-death recovery (pool stays usable, the
lost fault is re-queued, artifacts unchanged).
"""

import os
import time
from dataclasses import replace

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import load_circuit
from repro.errors import SimulationError
from repro.fault import ShardedFaultSimulator, all_stuck_faults, collapse_stuck
from repro.fault.atpg_flow import AtpgFlow, AtpgFlowConfig
from repro.fault.backends import RACE_BUDGET_FACTOR, podem_portfolio
from repro.fault.podem import DEFAULT_SEARCH_SLICE, Podem, PodemPolicy
from repro.fault.sharded import _cpu_quota_cores, usable_cores
from repro.netlist import Netlist, validate
from repro.obs import Recorder, use_recorder


def artifacts(result):
    """Everything the byte-identity contract covers, order included."""
    return (
        result.tests,
        list(result.status.items()),
        list(result.detected_via.items()),
        list(result.untestable_via.items()),
        result.summary(),
    )


def flows_identical(netlist, config, processes_list=(2, 4), faults=None):
    serial = AtpgFlow(netlist, config).run(faults)
    for processes in processes_list:
        parallel = AtpgFlow(
            netlist, replace(config, processes=processes)
        ).run(faults)
        assert artifacts(parallel) == artifacts(serial), (
            f"processes={processes} diverged from serial"
        )
    return serial


# ----------------------------------------------------------------------
# usable_cores: cgroup v1/v2 CPU quotas (faked cgroup trees)
# ----------------------------------------------------------------------
class TestUsableCores:
    def _pin_affinity(self, monkeypatch, n):
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: set(range(n)),
            raising=False,
        )

    def test_v2_quota_clamps(self, tmp_path, monkeypatch):
        (tmp_path / "cpu.max").write_text("200000 100000\n")
        self._pin_affinity(monkeypatch, 8)
        assert _cpu_quota_cores(str(tmp_path)) == 2.0
        assert usable_cores(str(tmp_path)) == 2

    def test_v2_unlimited_is_no_quota(self, tmp_path, monkeypatch):
        (tmp_path / "cpu.max").write_text("max 100000\n")
        self._pin_affinity(monkeypatch, 8)
        assert _cpu_quota_cores(str(tmp_path)) is None
        assert usable_cores(str(tmp_path)) == 8

    def test_v1_quota_clamps(self, tmp_path, monkeypatch):
        v1 = tmp_path / "cpu"
        v1.mkdir()
        (v1 / "cpu.cfs_quota_us").write_text("400000\n")
        (v1 / "cpu.cfs_period_us").write_text("100000\n")
        self._pin_affinity(monkeypatch, 8)
        assert _cpu_quota_cores(str(tmp_path)) == 4.0
        assert usable_cores(str(tmp_path)) == 4

    def test_v1_unlimited_is_no_quota(self, tmp_path, monkeypatch):
        v1 = tmp_path / "cpu"
        v1.mkdir()
        (v1 / "cpu.cfs_quota_us").write_text("-1\n")
        (v1 / "cpu.cfs_period_us").write_text("100000\n")
        self._pin_affinity(monkeypatch, 3)
        assert _cpu_quota_cores(str(tmp_path)) is None
        assert usable_cores(str(tmp_path)) == 3

    def test_v2_wins_over_v1(self, tmp_path, monkeypatch):
        (tmp_path / "cpu.max").write_text("100000 100000\n")
        v1 = tmp_path / "cpu"
        v1.mkdir()
        (v1 / "cpu.cfs_quota_us").write_text("400000\n")
        (v1 / "cpu.cfs_period_us").write_text("100000\n")
        self._pin_affinity(monkeypatch, 8)
        assert usable_cores(str(tmp_path)) == 1

    def test_garbage_files_mean_no_quota(self, tmp_path, monkeypatch):
        (tmp_path / "cpu.max").write_text("not numbers\n")
        v1 = tmp_path / "cpu"
        v1.mkdir()
        (v1 / "cpu.cfs_quota_us").write_text("banana\n")
        (v1 / "cpu.cfs_period_us").write_text("100000\n")
        self._pin_affinity(monkeypatch, 5)
        assert _cpu_quota_cores(str(tmp_path)) is None
        assert usable_cores(str(tmp_path)) == 5

    def test_missing_cgroup_tree(self, tmp_path, monkeypatch):
        self._pin_affinity(monkeypatch, 6)
        assert usable_cores(str(tmp_path / "nope")) == 6

    def test_falls_back_to_cpu_count(self, tmp_path, monkeypatch):
        """Without ``sched_getaffinity`` (non-Linux) the CPU count is
        the affinity."""
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert usable_cores(str(tmp_path / "nope")) == 6

    def test_quota_above_affinity_does_not_raise_count(
            self, tmp_path, monkeypatch):
        (tmp_path / "cpu.max").write_text("1600000 100000\n")
        self._pin_affinity(monkeypatch, 2)
        assert usable_cores(str(tmp_path)) == 2

    def test_fractional_quota_floors_to_one(self, tmp_path, monkeypatch):
        (tmp_path / "cpu.max").write_text("50000 100000\n")
        self._pin_affinity(monkeypatch, 8)
        assert usable_cores(str(tmp_path)) == 1

    def test_real_environment_is_positive(self):
        assert usable_cores() >= 1


# ----------------------------------------------------------------------
# portfolio policies
# ----------------------------------------------------------------------
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

    def test_wire_form(self):
        wire = PodemPolicy(name="deep", guided=True,
                           backtrack_limit=240).to_wire(60, 16)
        assert wire == {"name": "deep", "guided": True,
                        "backtrack_limit": 240, "slice": 16}
        default = PodemPolicy().to_wire(60)
        assert default["backtrack_limit"] == 60
        assert default["slice"] == DEFAULT_SEARCH_SLICE


class TestResumableSearch:
    def test_sliced_search_matches_one_shot(self):
        netlist = load_circuit("s344")
        faults = collapse_stuck(netlist, all_stuck_faults(netlist))[:40]
        for fault in faults:
            want = Podem(netlist, 20).generate(fault)
            engine = Podem(netlist, 20)
            search = engine.search(fault)
            result = None
            while result is None:
                result = search.step(3)
            assert (result.status, result.test, result.backtracks) == \
                (want.status, want.test, want.backtracks)


# ----------------------------------------------------------------------
# parallel flow == serial flow, byte for byte
# ----------------------------------------------------------------------
class TestParallelIdentity:
    @pytest.mark.parametrize("circuit", ["s298", "s344"])
    @pytest.mark.parametrize("race", [False, True])
    def test_catalog_identity(self, circuit, race):
        netlist = load_circuit(circuit)
        config = AtpgFlowConfig(n_random_patterns=64, backtrack_limit=20,
                                backend="int", race=race)
        flows_identical(netlist, config)

    def test_analysis_guided_identity(self):
        netlist = load_circuit("s298")
        config = AtpgFlowConfig(n_random_patterns=64, backtrack_limit=20,
                                backend="int", use_analysis=True,
                                race=True)
        flows_identical(netlist, config, processes_list=(2,))

    def test_more_processes_than_hard_faults(self):
        netlist = load_circuit("s298")
        faults = collapse_stuck(netlist, all_stuck_faults(netlist))[:3]
        config = AtpgFlowConfig(n_random_patterns=0, backtrack_limit=20,
                                backend="int")
        serial = flows_identical(netlist, config, processes_list=(4,),
                                 faults=faults)
        assert serial.n_faults == 3

    def test_empty_hard_remainder(self):
        netlist = load_circuit("s298")
        config = AtpgFlowConfig(n_random_patterns=0, backtrack_limit=20,
                                backend="int")
        serial = flows_identical(netlist, config, processes_list=(2,),
                                 faults=[])
        assert serial.n_faults == 0

    def test_explicit_speculate_window(self):
        netlist = load_circuit("s298")
        config = AtpgFlowConfig(n_random_patterns=64, backtrack_limit=20,
                                backend="int", speculate=1)
        flows_identical(netlist, config, processes_list=(2,))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AtpgFlowConfig(speculate=0)
        with pytest.raises(ValueError):
            AtpgFlowConfig(podem_slice=0)
        with pytest.raises(ValueError):
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


NARY = ["AND", "NAND", "OR", "NOR", "XOR", "XNOR"]


@st.composite
def comb_netlist(draw):
    """Random combinational netlist (mirrors the ATPG property tests)."""
    n_inputs = draw(st.integers(2, 4))
    n_gates = draw(st.integers(2, 12))
    netlist = Netlist("par_rand")
    nets = []
    for i in range(n_inputs):
        netlist.add_input(f"i{i}")
        nets.append(f"i{i}")
    gates = []
    for g in range(n_gates):
        func = draw(st.sampled_from(NARY + ["NOT", "BUF"]))
        if func in ("NOT", "BUF"):
            fanin = [draw(st.sampled_from(nets))]
        else:
            k = draw(st.integers(2, 3))
            fanin = [draw(st.sampled_from(nets)) for _ in range(k)]
        name = f"g{g}"
        netlist.add(name, func, fanin)
        nets.append(name)
        gates.append(name)
    netlist.add_output(gates[-1])
    for name in gates:
        if not netlist.fanout(name) and name not in netlist.outputs:
            netlist.add_output(name)
    validate(netlist)
    return netlist


@given(comb_netlist(), st.booleans())
@settings(max_examples=8, deadline=None)
def test_property_parallel_identical_to_serial(netlist, race):
    """Every fault through PODEM (no random phase), any process count:
    artifacts byte-identical to serial on random circuits."""
    config = AtpgFlowConfig(n_random_patterns=0, backtrack_limit=20,
                            backend="int", race=race)
    flows_identical(netlist, config, processes_list=(2, 4))


# ----------------------------------------------------------------------
# guidance handshake
# ----------------------------------------------------------------------
class TestGuidanceHandshake:
    def test_sends_once_then_skips(self):
        from repro.analysis import compute_scoap, guidance_hash

        netlist = load_circuit("s298")
        scores = compute_scoap(netlist, style="scan")
        digest = guidance_hash(scores)
        rec = Recorder()
        with use_recorder(rec):
            with ShardedFaultSimulator(netlist, processes=2,
                                       backend="int") as pool:
                pool.ensure_guidance(scores, digest)
                assert rec.counter("pool.guidance_sends") == 2
                assert rec.counter("pool.guidance_skips") == 0
                # Steady state: same hash re-sends nothing.
                for _ in range(3):
                    pool.ensure_guidance(scores, digest)
                assert rec.counter("pool.guidance_sends") == 2
                assert rec.counter("pool.guidance_skips") == 6
                # New content = new hash = one more send per worker.
                pool.ensure_guidance(scores, "different-digest")
                assert rec.counter("pool.guidance_sends") == 4

    def test_flow_steady_state_resends_zero(self):
        """One racing flow run: sends == workers, no re-sends."""
        netlist = load_circuit("s298")
        config = AtpgFlowConfig(n_random_patterns=64, backtrack_limit=20,
                                backend="int", race=True, processes=2)
        rec = Recorder()
        with use_recorder(rec):
            AtpgFlow(netlist, config).run()
        assert rec.counter("pool.guidance_sends") == 2

    def test_serial_mode_is_noop(self):
        netlist = load_circuit("s298")
        rec = Recorder()
        with use_recorder(rec):
            with ShardedFaultSimulator(netlist, processes=1) as pool:
                pool.ensure_guidance(object(), "h")
        assert rec.counter("pool.guidance_sends") == 0

    def test_guidance_hash_is_content_hash(self):
        from repro.analysis import compute_scoap, guidance_hash

        netlist = load_circuit("s298")
        a = guidance_hash(compute_scoap(netlist, style="scan"))
        b = guidance_hash(compute_scoap(netlist, style="scan"))
        assert a == b
        assert guidance_hash(None) == "none"
        other = guidance_hash(
            compute_scoap(load_circuit("s344"), style="scan"))
        assert other != a


# ----------------------------------------------------------------------
# worker death mid-generation
# ----------------------------------------------------------------------
class TestWorkerDeath:
    def test_pool_survives_die_and_requeues(self):
        """Protocol-level: a worker killed mid-search is detected by
        podem_poll, restarts in place, and re-running the lost fault
        yields the exact serial result."""
        netlist = load_circuit("s344")
        faults = collapse_stuck(netlist, all_stuck_faults(netlist))
        policy = PodemPolicy().to_wire(20)
        want = Podem(netlist, 20).generate(faults[0])
        with ShardedFaultSimulator(netlist, processes=2,
                                   backend="int") as pool:
            pool.load_faults(faults)
            req = pool.podem_submit(0, faults[0], policy)
            pool._send(0, ("die",))
            # Whether the search replies before the die lands or not,
            # worker 0 ends up dead: podem_poll reports the death once
            # any buffered reply has been drained.
            deadline = time.time() + 30
            dead = []
            while not dead and time.time() < deadline:
                done, dead = pool.podem_poll({req: 0}, timeout=0.2)
                if done:  # reply won the race; the die is still queued
                    while (not pool.dead_workers()
                           and time.time() < deadline):
                        time.sleep(0.05)
                    dead = pool.dead_workers()
            assert dead == [0]
            assert pool.recover_workers() == [0]
            # The pool is fully usable: the re-queued fault's search
            # and a fault-sim round both behave as if nothing died.
            req2 = pool.podem_submit(0, faults[0], policy)
            got = None
            while got is None:
                done, dead2 = pool.podem_poll({req2: 0}, timeout=0.5)
                assert not dead2
                for _w, _r, msg in done:
                    got = msg[2]
            assert got["status"] == want.status
            assert got["test"] == want.test
            assert got["backtracks"] == want.backtracks
            assert pool.n_active == len(faults)

    def test_flow_artifacts_survive_worker_death(self, monkeypatch):
        """Flow-level: kill a worker right after a speculative submit;
        the coordinator re-queues, respawns, and the artifacts stay
        byte-identical to the serial run."""
        netlist = load_circuit("s344")
        config = AtpgFlowConfig(n_random_patterns=32, backtrack_limit=20,
                                backend="int")
        serial = AtpgFlow(netlist, config).run()

        calls = {"n": 0}
        orig = ShardedFaultSimulator.podem_submit

        def flaky_submit(self, worker_id, fault, policy):
            req_id = orig(self, worker_id, fault, policy)
            calls["n"] += 1
            if calls["n"] == 3:
                try:
                    self._send(worker_id, ("die",))
                except SimulationError:
                    pass
            return req_id

        monkeypatch.setattr(ShardedFaultSimulator, "podem_submit",
                            flaky_submit)
        rec = Recorder()
        with use_recorder(rec):
            parallel = AtpgFlow(
                netlist, replace(config, processes=2)
            ).run()
        assert calls["n"] > 3, "death injected before the walk finished"
        assert rec.counter("pool.worker_restarts") >= 1
        assert artifacts(parallel) == artifacts(serial)

"""Tests for the sharded fault-parallel simulation engine.

The load-bearing property is *determinism*: for any shard count, the
merged result must be bit-identical to :class:`FaultSimulator` run
serially -- same masks, same fault ordering, same coverage -- in both
full-mask and fault-dropping modes.
"""

import random

import pytest

from repro.bench import load_circuit
from repro.errors import SimulationError
from repro.fault import (
    FaultSimulator,
    ShardedFaultSimulator,
    StuckFault,
    all_stuck_faults,
    collapse_stuck,
    random_pattern_words,
    shard_faults,
)
from repro.fault.atpg_flow import AtpgFlowConfig, run_flow


def sampled_faults(netlist, limit=160):
    """Collapsed fault list thinned to a bounded, ordered sample."""
    faults = collapse_stuck(netlist, all_stuck_faults(netlist))
    stride = max(1, len(faults) // limit)
    return faults[::stride]


def words_for(netlist, n_patterns, seed):
    return random_pattern_words(netlist, n_patterns, seed=seed)


class TestShardFaults:
    def test_partition_covers_all_faults_once(self):
        faults = [StuckFault(f"n{i}", i % 2) for i in range(13)]
        shards = shard_faults(faults, 4)
        assert len(shards) == 4
        flat = [f for shard in shards for f in shard]
        assert sorted(flat, key=str) == sorted(faults, key=str)
        assert len(flat) == len(faults)

    def test_round_robin_is_deterministic(self):
        faults = [StuckFault(f"n{i}", 0) for i in range(10)]
        assert shard_faults(faults, 3) == shard_faults(faults, 3)
        assert shard_faults(faults, 3)[0] == faults[0::3]

    def test_more_shards_than_faults(self):
        faults = [StuckFault("a", 0)]
        shards = shard_faults(faults, 4)
        assert shards[0] == faults
        assert all(not s for s in shards[1:])

    def test_one_shard_is_identity(self):
        faults = [StuckFault(f"n{i}", 1) for i in range(5)]
        assert shard_faults(faults, 1) == [faults]


# Every reconstructible catalog circuit, small and large.  Fault lists
# are stride-sampled so the big circuits stay affordable while the
# merge logic still sees hundreds of shard boundaries.
EQUIV_CIRCUITS = (
    "s27", "s208", "s298", "s344", "s382", "s400", "s420", "s444",
    "s526", "s641", "s713", "s838", "s953", "s1196", "s1238", "s1423",
    "s5378", "s9234", "s13207", "s15850", "s35932", "s38417", "s38584",
)


class TestSerialEquivalence:
    """Sharded == serial, bit for bit, on every catalog circuit."""

    @pytest.mark.parametrize("name", EQUIV_CIRCUITS)
    def test_masks_identical_to_serial(self, name):
        netlist = load_circuit(name)
        faults = sampled_faults(netlist)
        n = 32
        words = words_for(netlist, n, seed=7)
        serial = FaultSimulator(netlist).simulate_stuck_packed(
            faults, words, n
        )
        with ShardedFaultSimulator(netlist, processes=2) as pool:
            sharded = pool.simulate_stuck_packed(faults, words, n)
            assert sharded.detected == serial.detected
            # merge must also preserve serial fault ordering exactly
            assert list(sharded.detected) == list(serial.detected)
            assert sharded.coverage == serial.coverage
            assert sharded.n_patterns == serial.n_patterns

            dropped_serial = FaultSimulator(netlist).simulate_stuck_packed(
                faults, words, n, drop_detected=True
            )
            dropped = pool.simulate_stuck_packed(
                faults, words, n, drop_detected=True
            )
            assert dropped.detected == dropped_serial.detected
            assert list(dropped.detected) == list(dropped_serial.detected)

    def test_pattern_dict_path_matches_serial(self, s298_netlist):
        faults = sampled_faults(s298_netlist, limit=80)
        rng = random.Random(3)
        nets = list(s298_netlist.inputs) + list(s298_netlist.state_inputs)
        patterns = [
            {net: rng.randint(0, 1) for net in nets} for _ in range(12)
        ]
        serial = FaultSimulator(s298_netlist).simulate_stuck(
            faults, patterns
        )
        with ShardedFaultSimulator(s298_netlist, processes=3) as pool:
            sharded = pool.simulate_stuck(faults, patterns)
        assert sharded.detected == serial.detected

    def test_shard_count_does_not_matter(self, s344_netlist):
        faults = sampled_faults(s344_netlist, limit=60)
        n = 16
        words = words_for(s344_netlist, n, seed=11)
        results = []
        for processes in (1, 2, 4):
            with ShardedFaultSimulator(
                    s344_netlist, processes=processes) as pool:
                results.append(
                    pool.simulate_stuck_packed(faults, words, n).detected
                )
        assert results[0] == results[1] == results[2]

    def test_processes_1_runs_inline(self, s27_netlist):
        faults = sampled_faults(s27_netlist)
        n = 8
        words = words_for(s27_netlist, n, seed=5)
        serial = FaultSimulator(s27_netlist).simulate_stuck_packed(
            faults, words, n
        )
        with ShardedFaultSimulator(s27_netlist, processes=1) as pool:
            assert pool._workers == []  # no subprocesses forked
            assert pool.simulate_stuck_packed(
                faults, words, n
            ).detected == serial.detected


class TestSession:
    """The persistent load/round/drop protocol used by the ATPG flow."""

    def test_rounds_with_dropping_match_serial(self, s298_netlist):
        faults = collapse_stuck(
            s298_netlist, all_stuck_faults(s298_netlist)
        )
        serial_sim = FaultSimulator(s298_netlist)
        remaining = list(faults)
        serial_hits = {}
        with ShardedFaultSimulator(s298_netlist, processes=2) as pool:
            pool.load_faults(faults)
            for seed in (1, 2, 3):
                n = 16
                words = words_for(s298_netlist, n, seed=seed)
                hits = pool.round_packed(words, n, drop=True)
                res = serial_sim.simulate_stuck_packed(
                    remaining, words, n, drop_detected=True
                )
                expected = {
                    f: m for f, m in res.detected.items() if m
                }
                assert hits == expected
                remaining = [f for f in remaining if f not in expected]
                assert pool.n_active == len(remaining)
                assert pool.active_faults == remaining

    def test_drop_faults_broadcast(self, s27_netlist):
        faults = collapse_stuck(s27_netlist, all_stuck_faults(s27_netlist))
        with ShardedFaultSimulator(s27_netlist, processes=2) as pool:
            pool.load_faults(faults)
            pool.drop_faults(faults[:3])
            assert pool.n_active == len(faults) - 3
            assert pool.active_faults == faults[3:]


class TestAtpgFlowParity:
    """processes=N must not change a single ATPG flow artifact."""

    @pytest.mark.parametrize("name", ["s298", "s344"])
    def test_flow_identical_serial_vs_sharded(self, name):
        netlist = load_circuit(name)
        config = AtpgFlowConfig(n_random_patterns=64, batch_size=16,
                                seed=7)
        serial = run_flow(netlist, config=config)
        sharded = run_flow(
            netlist,
            config=AtpgFlowConfig(n_random_patterns=64, batch_size=16,
                                  seed=7, processes=2),
        )
        assert sharded.status == serial.status
        assert sharded.detected_via == serial.detected_via
        assert sharded.tests == serial.tests
        assert sharded.coverage == serial.coverage
        assert sharded.n_random_simulated == serial.n_random_simulated
        assert sharded.podem_calls == serial.podem_calls

    def test_config_rejects_bad_processes(self):
        with pytest.raises(ValueError):
            AtpgFlowConfig(processes=0)


class TestShardErrors:
    """Strict-mode failures surface as structured errors, not hangs."""

    def test_missing_net_raises_simulation_error(self, s27_netlist):
        faults = sampled_faults(s27_netlist)
        n = 8
        words = words_for(s27_netlist, n, seed=5)
        del words["G0"]  # strict packing requires every core input
        with ShardedFaultSimulator(s27_netlist, processes=2) as pool:
            with pytest.raises(SimulationError) as excinfo:
                pool.simulate_stuck_packed(faults, words, n)
            assert "G0" in str(excinfo.value)
            # the pool must stay usable after a shard-level error:
            # no stranded replies, no protocol desync
            good = words_for(s27_netlist, n, seed=5)
            serial = FaultSimulator(s27_netlist).simulate_stuck_packed(
                faults, good, n
            )
            again = pool.simulate_stuck_packed(faults, good, n)
            assert again.detected == serial.detected

    def test_unknown_fault_net_raises(self, s27_netlist):
        n = 4
        words = words_for(s27_netlist, n, seed=2)
        bogus = [StuckFault("NO_SUCH_NET", 0)]
        with ShardedFaultSimulator(s27_netlist, processes=2) as pool:
            with pytest.raises(Exception) as excinfo:
                pool.simulate_stuck_packed(bogus, words, n)
            assert "NO_SUCH_NET" in str(excinfo.value)

    def test_double_close_is_safe(self, s27_netlist):
        pool = ShardedFaultSimulator(s27_netlist, processes=2)
        pool.start()
        pool.close()
        pool.close()

    def test_leaves_no_children_behind(self, s27_netlist):
        import multiprocessing

        before = multiprocessing.active_children()
        with ShardedFaultSimulator(s27_netlist, processes=2) as pool:
            faults = sampled_faults(s27_netlist)
            n = 8
            words = words_for(s27_netlist, n, seed=5)
            pool.simulate_stuck_packed(faults, words, n)
        assert multiprocessing.active_children() == before


class TestSwallowedErrorObservability:
    """Deliberately-swallowed shutdown failures must leave a trail:
    a ``pool.swallowed_error`` warning event plus a bumped
    ``pool.swallowed_errors`` counter on the active recorder."""

    def test_close_records_stop_send_failure(self, s27_netlist):
        from repro.obs import Recorder, use_recorder

        pool = ShardedFaultSimulator(s27_netlist, processes=2)
        pool.start()
        # Stop worker 0 ourselves and close our pipe end: the polite
        # ("stop",) in close() now has nowhere to go and must be
        # swallowed -- visibly.
        proc0, conn0 = pool._workers[0]
        conn0.send(("stop",))
        proc0.join(timeout=10)
        conn0.close()

        rec = Recorder()
        with use_recorder(rec):
            pool.close()
        assert rec.counter("pool.swallowed_errors") >= 1
        warnings = [
            e for e in rec.events if e["name"] == "pool.swallowed_error"
        ]
        assert warnings, "swallowed failure left no warning event"
        assert any(
            "close.stop_send" in e["args"]["where"] for e in warnings
        )
        assert all(e["severity"] == "warning" for e in warnings)

    def test_clean_close_swallows_nothing(self, s27_netlist):
        from repro.obs import Recorder, use_recorder

        rec = Recorder()
        with use_recorder(rec):
            with ShardedFaultSimulator(s27_netlist, processes=2) as pool:
                faults = sampled_faults(s27_netlist)
                words = words_for(s27_netlist, 8, seed=5)
                pool.simulate_stuck_packed(faults, words, 8)
        assert rec.counter("pool.swallowed_errors") == 0

    def test_del_backstop_records(self, s27_netlist):
        from repro.obs import Recorder, use_recorder

        pool = ShardedFaultSimulator.__new__(ShardedFaultSimulator)
        pool._workers = [("malformed",)]  # close() will blow up on this
        pool._serial = None
        pool._started = True

        rec = Recorder()
        with use_recorder(rec):
            pool.__del__()
        assert rec.counter("pool.swallowed_errors") >= 1
        assert any(
            e["name"] == "pool.swallowed_error"
            and e["args"]["where"] == "del.close"
            for e in rec.events
        )


class TestMoreWorkersThanFaults:
    """Regression: a pool with more processes than faults leaves some
    shards empty; every protocol path must still merge bit-identically
    to serial (an empty shard contributes nothing, not a crash)."""

    PROCESSES = 8

    def _tiny_faults(self, netlist):
        return collapse_stuck(netlist, all_stuck_faults(netlist))[:3]

    def test_one_shot_matches_serial(self, s27_netlist):
        faults = self._tiny_faults(s27_netlist)
        n = 12
        words = words_for(s27_netlist, n, seed=4)
        serial = FaultSimulator(s27_netlist).simulate_stuck_packed(
            faults, words, n
        )
        with ShardedFaultSimulator(
            s27_netlist, processes=self.PROCESSES
        ) as pool:
            sharded = pool.simulate_stuck_packed(faults, words, n)
            dropped = pool.simulate_stuck_packed(
                faults, words, n, drop_detected=True
            )
        serial_dropped = FaultSimulator(s27_netlist).simulate_stuck_packed(
            faults, words, n, drop_detected=True
        )
        assert sharded.detected == serial.detected
        assert list(sharded.detected) == list(serial.detected)
        assert sharded.coverage == serial.coverage
        assert dropped.detected == serial_dropped.detected

    def test_session_rounds_match_serial(self, s27_netlist):
        faults = self._tiny_faults(s27_netlist)
        serial_sim = FaultSimulator(s27_netlist)
        remaining = list(faults)
        with ShardedFaultSimulator(
            s27_netlist, processes=self.PROCESSES
        ) as pool:
            pool.load_faults(faults)
            assert pool.n_active == len(faults)
            for seed in (1, 2):
                n = 8
                words = words_for(s27_netlist, n, seed=seed)
                hits = pool.round_packed(words, n, drop=True)
                res = serial_sim.simulate_stuck_packed(
                    remaining, words, n, drop_detected=True
                )
                expected = {f: m for f, m in res.detected.items() if m}
                assert hits == expected
                remaining = [f for f in remaining if f not in expected]
                assert pool.n_active == len(remaining)
                assert pool.active_faults == remaining

    def test_round_patterns_and_drop_faults(self, s27_netlist):
        faults = self._tiny_faults(s27_netlist)
        rng = random.Random(6)
        nets = list(s27_netlist.inputs) + list(s27_netlist.state_inputs)
        patterns = [
            {net: rng.randint(0, 1) for net in nets} for _ in range(6)
        ]
        serial = FaultSimulator(s27_netlist).simulate_stuck(
            faults, patterns
        )
        with ShardedFaultSimulator(
            s27_netlist, processes=self.PROCESSES
        ) as pool:
            pool.load_faults(faults)
            got = pool.round_patterns(patterns, drop=False)
            assert got == {
                f: m for f, m in serial.detected.items() if m
            }
            pool.drop_faults(faults[:1])
            assert pool.n_active == len(faults) - 1
            assert pool.active_faults == faults[1:]

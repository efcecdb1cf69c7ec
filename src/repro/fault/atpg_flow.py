"""Two-phase fault-dropping ATPG pipeline.

The naive path (:func:`repro.fault.podem.generate_tests`) runs one
PODEM search per fault -- textbook, and quadratically wasteful: most
faults are trivially detected by random patterns, and every
deterministic test detects dozens of faults beyond its target.  The
production structure (standard since the 1980s) is a two-phase
pipeline:

**Phase 1 -- random patterns with fault dropping.**  Batches of packed
uniform random patterns are fault-simulated against the active fault
list in drop mode: a fault leaves the list at first detection, and for
each newly detected fault one detecting pattern is kept as a test.
The phase stops at the pattern budget or after a configurable number
of consecutive batches that detect nothing new (the random phase has
saturated).

**Phase 2 -- deterministic ATPG on the survivors.**  PODEM runs only
on still-undetected faults; dominance collapse
(:func:`repro.fault.collapse.dominance_collapse_stuck`) orders the
targets so that dominating (droppable) faults are never targeted
while a dominated-below fault is pending.  Every generated test is
immediately fault-simulated against *all* remaining undetected faults
(drop mode again), so one PODEM call typically retires many faults.
Aborted faults stay in the droppable pool -- a later test can still
detect them.

Because phase 2 eventually targets every undetected fault with a full
PODEM search, the final coverage equals the naive per-fault path
whenever neither run aborts (``tests/fault/test_atpg_flow.py`` pins
this on every catalog circuit).

Both phases run their fault simulation through one
:class:`~repro.fault.sharded.ShardedFaultSimulator` session: with
``AtpgFlowConfig.processes > 1`` the active fault list is sharded
across a persistent worker pool (phase-1 batches and phase-2
cross-simulation alike), with dropped faults exchanged between rounds;
with the default ``processes=1`` it degrades to the serial in-process
simulator.  Results are identical either way
(``tests/fault/test_sharded.py`` pins serial == sharded flow output).

**Parallel phase 2.**  With ``processes > 1`` the PODEM walk itself
fans out: workers generate tests *speculatively* for a window of
upcoming targets while the coordinator commits results strictly in the
serial target order.  The determinism argument is that each search is
a pure function of ``(netlist, fault, policy)`` -- the engine resets
per search and never sees flow state -- so a speculative result
computed early is bit-identical to the one the serial walk would have
computed on its turn.  The coordinator commits the head target only
from completed results, cross-simulates the committed test through the
pool exactly as the serial walk does, and *discards* (never counts)
speculative work for targets retired in the meantime, so the artifacts
(test list, status map, summary counters) are byte-identical to the
serial flow at every ``processes`` value
(``tests/fault/test_parallel_podem.py`` pins this, hypothesis-random
circuits included).

**Portfolio racing** (``race=True``) runs each hard fault under an
ordered portfolio of diverse PODEM policies
(:func:`repro.fault.backends.podem_portfolio`): the committed outcome
is the first non-aborted result *in policy order* -- never the
wall-clock winner -- folded identically by the serial and parallel
paths, so racing changes which tests exist but not determinism.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from ..errors import SimulationError
from ..netlist import Netlist
from ..obs import get_recorder
from .backends import podem_portfolio
from .collapse import collapse_stuck, dominance_collapse_stuck
from .models import StuckFault, all_stuck_faults
from .podem import DEFAULT_SEARCH_SLICE, AtpgResult, Podem
from .sharded import ShardedFaultSimulator

#: How a detected fault was retired.
VIA_RANDOM = "random"    # phase-1 random pattern
VIA_PODEM = "podem"      # phase-2 PODEM target
VIA_DROP = "drop"        # dropped by another fault's deterministic test
VIA_STATIC = "static"    # proven untestable by static analysis


@dataclass(frozen=True)
class AtpgFlowConfig:
    """Knobs of the two-phase pipeline."""

    n_random_patterns: int = 256   # phase-1 pattern budget
    batch_size: int = 64           # patterns fault-simulated per batch
    max_idle_batches: int = 2      # stop phase 1 after this many
                                   # consecutive batches with no new drop
    backtrack_limit: int = 100     # PODEM abort threshold (per fault)
    seed: int = 7                  # phase-1 RNG seed
    use_dominance: bool = True     # dominance-order phase-2 targets
    use_analysis: bool = False     # static testability analysis: prune
                                   # statically-proven-untestable faults
                                   # and SCOAP-guide the PODEM search
    processes: int = 1             # fault-sim worker pool size
                                   # (1 = serial in-process)
    backend: str = "auto"          # fault-sim backend ("auto" | "int" |
                                   # "numpy"); bit-identical either way,
                                   # see repro.fault.backends
    race: bool = False             # phase-2 portfolio racing: each hard
                                   # fault under diverse PODEM policies,
                                   # first non-aborted in policy order
                                   # wins (deterministic fold)
    speculate: Optional[int] = None  # speculative look-ahead window of
                                     # the parallel phase-2 coordinator
                                     # (targets generated ahead of the
                                     # commit pointer; None = sized from
                                     # the pool)
    podem_slice: int = DEFAULT_SEARCH_SLICE  # worker search-loop slice
                                             # between pipe polls (pure
                                             # responsiveness knob,
                                             # never changes results)

    def __post_init__(self) -> None:
        # Either would silently skip phase 1.
        if self.n_random_patterns < 0:
            raise ValueError("n_random_patterns must be >= 0")
        if self.max_idle_batches < 1:
            raise ValueError("max_idle_batches must be >= 1")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.processes < 1:
            raise ValueError("processes must be >= 1")
        if self.backtrack_limit < 0:
            raise ValueError("backtrack_limit must be >= 0")
        if self.speculate is not None and self.speculate < 1:
            raise ValueError("speculate must be >= 1 (or None for auto)")
        if self.podem_slice < 1:
            raise ValueError("podem_slice must be >= 1")
        if self.backend not in ("auto", "int", "numpy"):
            raise ValueError(
                f"backend must be 'auto', 'int' or 'numpy', "
                f"got {self.backend!r}"
            )


@dataclass
class AtpgFlowResult:
    """Outcome of one pipeline run."""

    n_faults: int
    #: fault -> "detected" | "untestable" | "aborted"
    status: Dict[StuckFault, str]
    #: detected fault -> VIA_RANDOM | VIA_PODEM | VIA_DROP
    detected_via: Dict[StuckFault, str]
    #: untestable fault -> VIA_STATIC (pruned by static analysis) |
    #: VIA_PODEM (exhausted PODEM search space)
    untestable_via: Dict[StuckFault, str] = field(default_factory=dict)
    #: the generated test set (full input vectors)
    tests: List[Dict[str, int]] = field(default_factory=list)
    n_random_simulated: int = 0    # phase-1 patterns fault-simulated
    podem_calls: int = 0           # phase-2 PODEM invocations
    backtracks: int = 0            # total phase-2 backtracks

    @property
    def detected_faults(self) -> List[StuckFault]:
        return [f for f, s in self.status.items() if s == "detected"]

    @property
    def untestable_faults(self) -> List[StuckFault]:
        return [f for f, s in self.status.items() if s == "untestable"]

    @property
    def aborted_faults(self) -> List[StuckFault]:
        return [f for f, s in self.status.items() if s == "aborted"]

    @property
    def coverage(self) -> float:
        """Fraction of the fault list detected (0.0 for an empty list)."""
        if not self.n_faults:
            return 0.0
        return len(self.detected_faults) / self.n_faults

    def summary(self) -> Dict[str, object]:
        """Flat scalar summary (JSON-friendly).

        ``untestable`` counts every proven-untestable fault;
        ``untestable_static`` / ``untestable_podem`` split it by how
        the proof was obtained, so static-pruning wins stay visible
        next to the (expensive) PODEM exhaustion proofs.
        """
        via = self.detected_via
        uvia = self.untestable_via
        return {
            "n_faults": self.n_faults,
            "detected": len(self.detected_faults),
            "untestable": len(self.untestable_faults),
            "untestable_static": sum(1 for v in uvia.values()
                                     if v == VIA_STATIC),
            "untestable_podem": sum(1 for v in uvia.values()
                                    if v == VIA_PODEM),
            "aborted": len(self.aborted_faults),
            "coverage": self.coverage,
            "tests": len(self.tests),
            "random_patterns_simulated": self.n_random_simulated,
            "detected_random": sum(1 for v in via.values()
                                   if v == VIA_RANDOM),
            "detected_podem": sum(1 for v in via.values()
                                  if v == VIA_PODEM),
            "detected_drop": sum(1 for v in via.values() if v == VIA_DROP),
            "podem_calls": self.podem_calls,
            "backtracks": self.backtracks,
        }


class AtpgFlow:
    """Two-phase fault-dropping ATPG engine bound to one netlist."""

    def __init__(self, netlist: Netlist,
                 config: Optional[AtpgFlowConfig] = None):
        self.netlist = netlist
        self.config = config or AtpgFlowConfig()
        self._static_untestable: Dict[StuckFault, str] = {}
        guidance = None
        if self.config.use_analysis:
            # Deferred import: repro.analysis pulls in fault.models,
            # so a module-level import would cycle through the package.
            from ..analysis import TestabilityAnalyzer

            analyzer = TestabilityAnalyzer(netlist, style="scan")
            self._static_untestable = analyzer.untestable_stuck()
            guidance = analyzer.scores
        self.podem = Podem(netlist, self.config.backtrack_limit,
                           guidance=guidance)
        self._guidance = guidance
        #: The ordered policy portfolio (policy 0 is the historical
        #: single-engine configuration; racing adds diversity policies).
        self.policies = podem_portfolio(self.config.backtrack_limit,
                                        base_guided=guidance is not None,
                                        race=self.config.race)
        # Per-policy serial engines, built lazily (policy 0 reuses
        # self.podem).  The parallel path ships the same guidance to
        # the workers, so worker and serial searches are identical.
        self._engines: Dict[int, Podem] = {0: self.podem}
        self._race_guidance = None
        self._guidance_digest: Optional[str] = None
        # Workers respawned by a mid-commit recovery (_pool_drop /
        # _cross_sim): the parallel coordinator must re-queue their
        # lost in-flight searches -- a fresh worker never answers its
        # predecessor's requests.
        self._respawned: set = set()
        self._input_nets = list(netlist.inputs) + list(netlist.state_inputs)

    # ------------------------------------------------------------------
    def run(self, faults: Optional[Sequence[StuckFault]] = None,
            ) -> AtpgFlowResult:
        """Run both phases over ``faults``.

        With ``faults`` omitted the equivalence-collapsed full stuck-at
        list of the netlist is used (the set coverage experiments report
        over).
        """
        if faults is None:
            faults = collapse_stuck(self.netlist,
                                    all_stuck_faults(self.netlist))
        faults = list(faults)
        result = AtpgFlowResult(n_faults=len(faults), status={},
                                detected_via={})
        rec = get_recorder()
        # Statically-proven-untestable faults never enter the pipeline:
        # no random pattern can detect them and PODEM would only burn
        # its backtrack budget re-proving (or aborting on) them.  The
        # proofs are sound, so pruning cannot change final coverage --
        # the pruned faults stay in the denominator as "untestable".
        active = faults
        if self._static_untestable:
            active = []
            n_pruned = 0
            for fault in faults:
                if fault in self._static_untestable:
                    result.status[fault] = "untestable"
                    result.untestable_via[fault] = VIA_STATIC
                    n_pruned += 1
                else:
                    active.append(fault)
            if n_pruned:
                rec.incr("atpg.untestable_static", n_pruned)
                rec.event("atpg.static_prune", cat="atpg",
                          circuit=self.netlist.name, pruned=n_pruned,
                          remaining=len(active))
        with rec.span("atpg.run", cat="atpg", circuit=self.netlist.name,
                      n_faults=len(faults),
                      processes=self.config.processes):
            with ShardedFaultSimulator(self.netlist,
                                       self.config.processes,
                                       backend=self.config.backend) as pool:
                pool.load_faults(active)
                with rec.span("atpg.phase1_random", cat="atpg",
                              circuit=self.netlist.name):
                    self._random_phase(result, pool)
                survivors = pool.active_faults
                rec.event("atpg.phase_boundary", cat="atpg",
                          circuit=self.netlist.name,
                          detected_random=len(result.detected_via),
                          survivors=len(survivors),
                          patterns_simulated=result.n_random_simulated)
                with rec.span("atpg.phase2_podem", cat="atpg",
                              circuit=self.netlist.name,
                              survivors=len(survivors)):
                    self._podem_phase(survivors, result, pool)
        return result

    # ------------------------------------------------------------------
    def _random_phase(self, result: AtpgFlowResult,
                      pool: ShardedFaultSimulator) -> None:
        """Phase 1: batched random patterns, fault dropping.

        The pool's session holds the active fault list (sharded across
        workers when ``config.processes > 1``); each round's newly
        detected faults are dropped everywhere before the next batch --
        the cross-shard dropped-fault exchange.  One detecting pattern
        per newly dropped fault is kept in ``result.tests``.
        """
        config = self.config
        rec = get_recorder()
        rng = random.Random(config.seed)
        nets = self._input_nets
        idle = 0
        batch = 0
        while (pool.n_active
               and result.n_random_simulated < config.n_random_patterns
               and idle < config.max_idle_batches):
            n = min(config.batch_size,
                    config.n_random_patterns - result.n_random_simulated)
            words = {net: rng.getrandbits(n) for net in nets}
            hits = pool.round_packed(words, n, drop=True)
            result.n_random_simulated += n
            keep_bits = 0
            for fault, mask in hits.items():
                result.status[fault] = "detected"
                result.detected_via[fault] = VIA_RANDOM
                keep_bits |= mask & -mask   # one detecting pattern
            if rec.enabled:
                rec.event("atpg.random_batch", cat="atpg", batch=batch,
                          n_patterns=n, detected=len(hits),
                          remaining=pool.n_active)
                rec.incr("atpg.detected_random", len(hits))
                rec.incr("atpg.random_patterns", n)
            batch += 1
            if not hits:
                idle += 1
            else:
                idle = 0
                self._keep_patterns(words, keep_bits, result)

    def _keep_patterns(self, words: Mapping[str, int], bits: int,
                       result: AtpgFlowResult) -> None:
        """Materialize the selected pattern lanes as test vectors."""
        i = 0
        while bits:
            if bits & 1:
                result.tests.append(
                    {net: (words[net] >> i) & 1 for net in self._input_nets}
                )
            bits >>= 1
            i += 1

    # ------------------------------------------------------------------
    # phase 2: PODEM on the hard remainder (serial and parallel paths)
    # ------------------------------------------------------------------
    def _podem_phase(self, survivors: List[StuckFault],
                     result: AtpgFlowResult,
                     pool: ShardedFaultSimulator) -> None:
        """Phase 2: PODEM on survivors, cross-dropping each new test.

        Dominance-kept faults are targeted first: a test for a
        dominated-below fault detects its dominators for free, so
        putting the kept set up front retires the droppable tail by
        simulation instead of search.  The tail is still *walked* --
        any fault neither detected nor proven untestable by the time
        its turn comes gets its own PODEM call, which is what makes
        final coverage match the naive per-fault path.

        Every new test is cross-simulated through the pool against all
        remaining undetected faults (drop mode); faults retired by the
        search itself (PODEM detection, untestability proofs) are
        broadcast with :meth:`ShardedFaultSimulator.drop_faults` so
        every shard's active set converges on the serial one.

        With ``processes > 1`` the walk runs through the speculative
        parallel coordinator (:meth:`_podem_phase_parallel`); its
        artifacts are byte-identical to the serial walk.
        """
        if not survivors:
            return
        if self.config.use_dominance and len(survivors) > 1:
            kept = set(dominance_collapse_stuck(self.netlist, survivors))
            order = ([f for f in survivors if f in kept]
                     + [f for f in survivors if f not in kept])
        else:
            order = list(survivors)
        if self.config.processes > 1:
            self._podem_phase_parallel(order, result, pool)
        else:
            self._podem_phase_serial(order, result, pool)

    # -- shared pieces -------------------------------------------------
    def _portfolio_guidance(self):
        """SCOAP guidance for guided portfolio policies.

        The analyzer's scores when ``use_analysis`` produced some,
        otherwise a lazily computed scan-style SCOAP pass.  Both the
        serial engines and the shipped worker guidance come from this
        one object, so guided searches are identical everywhere.
        """
        if self._race_guidance is None:
            if self._guidance is not None:
                self._race_guidance = self._guidance
            else:
                from ..analysis import compute_scoap

                self._race_guidance = compute_scoap(self.netlist,
                                                    style="scan")
        return self._race_guidance

    def _engine(self, policy_idx: int) -> Podem:
        """The serial engine for one portfolio policy (lazy)."""
        eng = self._engines.get(policy_idx)
        if eng is None:
            policy = self.policies[policy_idx]
            eng = Podem(self.netlist, self.config.backtrack_limit,
                        guidance=(self._portfolio_guidance()
                                  if policy.guided else None))
            self._engines[policy_idx] = eng
        return eng

    def _ship_guidance(self, pool: ShardedFaultSimulator) -> None:
        """Install guidance on the workers (content-hash handshake)."""
        if not any(p.guided for p in self.policies):
            return
        scores = self._portfolio_guidance()
        if self._guidance_digest is None:
            from ..analysis import guidance_hash

            self._guidance_digest = guidance_hash(scores)
        pool.ensure_guidance(scores, self._guidance_digest)

    def _pool_drop(self, pool: ShardedFaultSimulator,
                   faults: List[StuckFault]) -> None:
        """``drop_faults`` that survives a dead worker mid-broadcast.

        The parent's active list updates before the broadcast, so
        respawning (which re-deals that list to every shard) leaves
        all workers exactly where a clean broadcast would have.
        """
        try:
            pool.drop_faults(faults)
        except SimulationError:
            if not pool.dead_workers():
                raise
            self._respawned.update(pool.recover_workers())
            self._ship_guidance(pool)

    def _cross_sim(self, pool: ShardedFaultSimulator,
                   test: Dict[str, int]) -> Dict[StuckFault, int]:
        """Cross-simulate one committed test, surviving worker death.

        A worker dying mid-round raises; the pool's active list only
        shrinks on a *successful* round, so respawning the dead worker
        (which re-deals the parent's active list to every shard) and
        retrying yields exactly the reply the healthy pool would have
        produced -- the retry is invisible in the artifacts.
        """
        try:
            return pool.round_patterns([test], drop=True)
        except SimulationError:
            if not pool.dead_workers():
                raise
            self._respawned.update(pool.recover_workers())
            self._ship_guidance(pool)
            return pool.round_patterns([test], drop=True)

    def _commit(self, fault: StuckFault, atpg: AtpgResult, calls: int,
                backtracks: int, result: AtpgFlowResult,
                pool: ShardedFaultSimulator, rec) -> None:
        """Commit one folded portfolio outcome (the only state writer).

        Serial and parallel walks both funnel through here, in the
        same target order with the same folded outcomes, which is what
        makes their artifacts byte-identical: tests append in commit
        order, status/via dicts insert in commit order (cross-dropped
        faults sorted), and the counters add the folded prefix only --
        wasted speculative searches never appear anywhere.
        """
        result.podem_calls += calls
        result.backtracks += backtracks
        rec.incr("atpg.podem_calls", calls)
        if atpg.detected:
            result.tests.append(atpg.test)
            result.status[fault] = "detected"
            result.detected_via[fault] = VIA_PODEM
            rec.incr("atpg.detected_podem")
            self._pool_drop(pool, [fault])
            if pool.n_active:
                dropped = self._cross_sim(pool, atpg.test)
                rec.incr("atpg.detected_drop", len(dropped))
                for other in sorted(dropped):
                    result.status[other] = "detected"
                    result.detected_via[other] = VIA_DROP
        elif atpg.status == "untestable":
            result.status[fault] = "untestable"
            result.untestable_via[fault] = VIA_PODEM
            rec.incr("atpg.untestable")
            self._pool_drop(pool, [fault])
        else:
            # Aborted: stays in the droppable pool -- a later
            # fault's test may still detect it.
            result.status[fault] = "aborted"
            rec.incr("atpg.aborted")

    # -- serial walk ---------------------------------------------------
    def _podem_phase_serial(self, order: List[StuckFault],
                            result: AtpgFlowResult,
                            pool: ShardedFaultSimulator) -> None:
        """The in-process walk: fold each pending target inline.

        The portfolio fold short-circuits -- later policies only run
        when every earlier one aborted -- so a non-racing run performs
        exactly the historical single ``generate`` per target.
        """
        rec = get_recorder()
        config = self.config
        for fault in order:
            if result.status.get(fault) in ("detected", "untestable"):
                continue
            calls = 0
            backtracks = 0
            atpg: Optional[AtpgResult] = None
            for policy_idx, policy in enumerate(self.policies):
                attempt = self._engine(policy_idx).generate(
                    fault,
                    backtrack_limit=policy.resolve_limit(
                        config.backtrack_limit),
                )
                calls += 1
                backtracks += attempt.backtracks
                atpg = attempt
                if attempt.status != "aborted":
                    break
            self._commit(fault, atpg, calls, backtracks, result, pool,
                         rec)

    # -- parallel coordinator ------------------------------------------
    def _try_fold(self, fault: StuckFault, fault_idx: int,
                  results: Dict) -> Optional[tuple]:
        """Fold a target's completed policy results in policy order.

        Returns ``None`` while the needed prefix is incomplete,
        otherwise ``(outcome, calls, backtracks, prefix_len)`` where
        the outcome is the first non-aborted result in policy order
        (all-aborted folds to the last policy's abort) -- the same fold
        the serial walk computes by running policies sequentially.
        """
        calls = 0
        backtracks = 0
        payload = None
        for policy_idx in range(len(self.policies)):
            entry = results.get((fault_idx, policy_idx))
            if entry is None:
                return None
            if entry[0] == "err":
                raise SimulationError(
                    f"podem worker error for {fault} "
                    f"[{entry[1]}]: {entry[2]}"
                )
            payload = entry[1]
            calls += 1
            backtracks += payload["backtracks"]
            if payload["status"] != "aborted":
                break
        atpg = AtpgResult(fault, payload["status"], payload["test"],
                          payload["backtracks"])
        return atpg, calls, backtracks, calls

    def _podem_phase_parallel(self, order: List[StuckFault],
                              result: AtpgFlowResult,
                              pool: ShardedFaultSimulator) -> None:
        """Speculative fan-out with a strictly ordered commit pointer.

        Workers run PODEM searches for a look-ahead window of targets
        (every policy of the portfolio, at most one search in flight
        per worker); the coordinator commits the head target as soon as
        its folded prefix is complete, cross-simulates the committed
        test, and retires speculative work for targets the drop just
        resolved (cancel in flight, discard completed).  The dispatch
        acts as a work-stealing queue: whichever worker frees first
        picks up the next uncovered ``(target, policy)`` job, so one
        high-backtrack straggler never serializes the tail.

        Worker death is survived in place: the lost requests simply
        become dispatchable again, the worker respawns
        (:meth:`~repro.fault.sharded.ShardedFaultSimulator.restart_worker`),
        and because searches are pure and commits only ever use
        completed results, recovery never perturbs the artifacts.
        """
        rec = get_recorder()
        config = self.config
        policies = self.policies
        wires = [p.to_wire(config.backtrack_limit, config.podem_slice)
                 for p in policies]
        self._ship_guidance(pool)
        n_workers = pool.processes
        window = config.speculate or max(2 * n_workers, n_workers + 2)
        n = len(order)
        commit_idx = 0
        results: Dict = {}          # (fault_idx, policy_idx) -> entry
        inflight: Dict[int, tuple] = {}   # req_id -> (fi, pi, worker)
        inflight_keys = set()
        cancelled = set()
        idle = list(range(n_workers))

        def resolved(fault: StuckFault) -> bool:
            return result.status.get(fault) in ("detected", "untestable")

        def retire_jobs(fault_idx: int, keep_prefix: int) -> None:
            """Cancel/discard this target's jobs beyond ``keep_prefix``."""
            for req_id, (fi, pi, worker_id) in list(inflight.items()):
                if (fi == fault_idx and pi >= keep_prefix
                        and req_id not in cancelled):
                    pool.podem_cancel(worker_id, req_id)
                    cancelled.add(req_id)
                    rec.incr("atpg.parallel.cancelled")
            for pi in range(keep_prefix, len(policies)):
                if results.pop((fault_idx, pi), None) is not None:
                    rec.incr("atpg.parallel.wasted_results")

        def drain() -> None:
            """Revoke and await whatever speculation is still in flight
            so the pool ends the phase quiet and reusable."""
            for req_id, (fi, pi, worker_id) in list(inflight.items()):
                if req_id not in cancelled:
                    pool.podem_cancel(worker_id, req_id)
                    cancelled.add(req_id)
            while inflight:
                done, dead = pool.podem_poll(
                    {r: e[2] for r, e in inflight.items()}, timeout=1.0
                )
                for worker_id, req_id, _msg in done:
                    del inflight[req_id]
                    cancelled.discard(req_id)
                    rec.incr("atpg.parallel.retired_speculation")
                for worker_id in dead:
                    for req_id, (fi, pi, w) in list(inflight.items()):
                        if w == worker_id:
                            del inflight[req_id]
                            cancelled.discard(req_id)
                    pool.restart_worker(worker_id)
                    self._ship_guidance(pool)

        with rec.span("atpg.parallel_podem", cat="atpg",
                      circuit=self.netlist.name, targets=n,
                      processes=n_workers, window=window,
                      policies=len(policies)):
            try:
                while commit_idx < n:
                    # 1. Commit everything the completed results allow,
                    #    in strict target order.
                    progressed = True
                    while progressed and commit_idx < n:
                        progressed = False
                        fault = order[commit_idx]
                        if resolved(fault):
                            retire_jobs(commit_idx, 0)
                            commit_idx += 1
                            progressed = True
                            continue
                        folded = self._try_fold(fault, commit_idx,
                                                results)
                        if folded is not None:
                            atpg, calls, backtracks, prefix = folded
                            retire_jobs(commit_idx, prefix)
                            self._commit(fault, atpg, calls, backtracks,
                                         result, pool, rec)
                            # A cross-sim/drop inside _commit may have
                            # respawned dead workers; their in-flight
                            # searches died with the old process and
                            # must become dispatchable again, else the
                            # poll below waits forever on a reply the
                            # fresh worker will never send.
                            if self._respawned:
                                for req_id, (fi, pi, w) in list(
                                        inflight.items()):
                                    if w in self._respawned:
                                        del inflight[req_id]
                                        inflight_keys.discard((fi, pi))
                                        cancelled.discard(req_id)
                                for w in sorted(self._respawned):
                                    rec.warning(
                                        "atpg.parallel.worker_death",
                                        counter=(
                                            "atpg.parallel"
                                            ".worker_deaths"),
                                        worker=w)
                                    if w not in idle:
                                        idle.append(w)
                                idle.sort()
                                self._respawned.clear()
                            commit_idx += 1
                            progressed = True
                    if commit_idx >= n:
                        break
                    # 2. Refill idle workers from the speculative
                    #    window (base policies first -- racing policies
                    #    only pay off when the base attempt aborts).
                    if idle:
                        jobs = []
                        for fi in range(commit_idx,
                                        min(n, commit_idx + window)):
                            if resolved(order[fi]):
                                continue
                            for pi in range(len(policies)):
                                key = (fi, pi)
                                if key in results or key in inflight_keys:
                                    continue
                                jobs.append((pi, fi))
                        jobs.sort()
                        for pi, fi in jobs:
                            if not idle:
                                break
                            worker_id = idle.pop(0)
                            while True:
                                try:
                                    req_id = pool.podem_submit(
                                        worker_id, order[fi], wires[pi])
                                    break
                                except SimulationError:
                                    # A worker found dead only at
                                    # submit time (e.g. it died idle):
                                    # respawn in place and retry the
                                    # same job.
                                    if (worker_id
                                            not in pool.dead_workers()):
                                        raise
                                    rec.warning(
                                        "atpg.parallel.worker_death",
                                        counter=("atpg.parallel"
                                                 ".worker_deaths"),
                                        worker=worker_id)
                                    pool.restart_worker(worker_id)
                                    self._ship_guidance(pool)
                            inflight[req_id] = (fi, pi, worker_id)
                            inflight_keys.add((fi, pi))
                    # 3. Collect completions (and survive worker death).
                    done, dead = pool.podem_poll(
                        {r: e[2] for r, e in inflight.items()}
                    )
                    for worker_id, req_id, msg in done:
                        fi, pi, _w = inflight.pop(req_id)
                        inflight_keys.discard((fi, pi))
                        idle.append(worker_id)
                        if req_id in cancelled:
                            cancelled.discard(req_id)
                            rec.incr("atpg.parallel.retired_speculation")
                            continue
                        if msg[0] == "ok":
                            results[(fi, pi)] = ("ok", msg[2])
                        else:
                            results[(fi, pi)] = ("err", msg[2], msg[3])
                    for worker_id in dead:
                        rec.warning("atpg.parallel.worker_death",
                                    counter="atpg.parallel.worker_deaths",
                                    worker=worker_id)
                        for req_id, (fi, pi, w) in list(inflight.items()):
                            if w == worker_id:
                                # Lost with the worker: dispatchable
                                # again.
                                del inflight[req_id]
                                inflight_keys.discard((fi, pi))
                                cancelled.discard(req_id)
                        pool.restart_worker(worker_id)
                        self._ship_guidance(pool)
                        idle.append(worker_id)
                    idle.sort()
            except BaseException:
                # Any coordinator failure (or Ctrl-C): the primary
                # exception wins, but the pool must still end the
                # phase quiet -- a best-effort drain, its own failures
                # recorded rather than raised.
                try:
                    drain()
                except Exception as exc:
                    rec.warning("atpg.parallel.drain_failed",
                                counter="atpg.parallel.drain_failures",
                                exc_type=type(exc).__name__,
                                detail=str(exc))
                raise
            else:
                drain()


def run_flow(netlist: Netlist,
             faults: Optional[Sequence[StuckFault]] = None,
             config: Optional[AtpgFlowConfig] = None) -> AtpgFlowResult:
    """One-shot convenience wrapper around :class:`AtpgFlow`."""
    return AtpgFlow(netlist, config).run(faults)


#: Bump when the canonical artifact layout changes: two artifacts are
#: only ever byte-compared within one schema.
ARTIFACT_SCHEMA = 2


def flow_artifact(circuit: str, config: AtpgFlowConfig,
                  result: AtpgFlowResult) -> bytes:
    """Canonical byte-exact artifact of one flow run.

    One JSON document (sorted keys, no insignificant whitespace,
    trailing newline) capturing everything the flow produced: the full
    test set, per-fault status/via maps *in commit order* (the order is
    itself part of the determinism contract), and the scalar summary.
    ``atpg --artifact`` writes exactly these bytes, so "two runs agree"
    is a byte comparison, not a semantic one.
    """
    payload = {
        "schema": ARTIFACT_SCHEMA,
        "circuit": circuit,
        "config": asdict(config),
        "summary": result.summary(),
        "tests": result.tests,
        "status": [[str(f), s] for f, s in result.status.items()],
        "detected_via": [[str(f), v]
                         for f, v in result.detected_via.items()],
        "untestable_via": [[str(f), v]
                           for f, v in result.untestable_via.items()],
    }
    return (json.dumps(payload, sort_keys=True,
                       separators=(",", ":")) + "\n").encode("utf-8")


# ----------------------------------------------------------------------
# CLI: python -m repro atpg
# ----------------------------------------------------------------------
def atpg_main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro atpg`` -- run the pipeline on catalog circuits."""
    import argparse
    import json as _json

    from ..bench import available_circuits, load_circuit
    from ..obs import add_trace_argument, trace_session

    parser = argparse.ArgumentParser(
        prog="repro atpg",
        description="Two-phase fault-dropping stuck-at ATPG "
                    "(random patterns + PODEM on survivors).",
    )
    parser.add_argument("circuits", nargs="*", default=["s298"],
                        help="catalog circuit names (default: s298)")
    parser.add_argument("--all", action="store_true",
                        help="run every catalog circuit")
    parser.add_argument("--random-patterns", type=int, default=256,
                        help="phase-1 pattern budget (default 256)")
    parser.add_argument("--batch-size", type=int, default=64,
                        help="patterns per phase-1 batch (default 64)")
    parser.add_argument("--backtrack-limit", type=int, default=100,
                        help="PODEM backtrack limit (default 100)")
    parser.add_argument("--seed", type=int, default=7,
                        help="phase-1 RNG seed (default 7)")
    parser.add_argument("--processes", type=int, default=1,
                        help="fault-simulation worker processes (a "
                             "persistent sharded pool; 1 = serial "
                             "in-process, identical results)")
    parser.add_argument("--backend", default="auto",
                        choices=["auto", "int", "numpy"],
                        help="fault-simulation backend for the phase-1 "
                             "random patterns (bit-identical results; "
                             "default auto)")
    parser.add_argument("--no-dominance", action="store_true",
                        help="disable dominance ordering of phase-2 "
                             "targets")
    parser.add_argument("--analysis", action="store_true",
                        help="static testability analysis: prune "
                             "statically-proven-untestable faults and "
                             "SCOAP-guide the PODEM search")
    parser.add_argument("--race", action="store_true",
                        help="phase-2 portfolio racing: each hard fault "
                             "under diverse PODEM policies, first "
                             "non-aborted in policy order wins "
                             "(deterministic at any --processes)")
    parser.add_argument("--speculate", type=int, default=None,
                        help="parallel phase-2 look-ahead window "
                             "(targets generated ahead of the commit "
                             "pointer; default: sized from the pool)")
    parser.add_argument("--check-serial", action="store_true",
                        help="also run the flow serially (processes=1) "
                             "and fail unless tests, statuses and "
                             "summary are byte-identical")
    parser.add_argument("--json", action="store_true",
                        help="emit one JSON object per circuit")
    parser.add_argument("--artifact", metavar="FILE", default=None,
                        help="write the canonical byte-exact run "
                             "artifact (single circuit only); identical "
                             "bytes for the same circuit and config")
    add_trace_argument(parser)
    args = parser.parse_args(argv)

    names = available_circuits() if args.all else args.circuits
    if args.artifact is not None and len(names) != 1:
        parser.error("--artifact requires exactly one circuit")
    try:
        config = AtpgFlowConfig(
            n_random_patterns=args.random_patterns,
            batch_size=args.batch_size,
            backtrack_limit=args.backtrack_limit,
            seed=args.seed,
            use_dominance=not args.no_dominance,
            use_analysis=args.analysis,
            processes=args.processes,
            backend=args.backend,
            race=args.race,
            speculate=args.speculate,
        )
    except ValueError as exc:
        parser.error(str(exc))
    status = 0
    manifest_extra: Dict[str, object] = {"seed": args.seed,
                                         "circuits": {}}
    with trace_session(args.trace, "atpg", argv=list(argv or []),
                       extra=manifest_extra):
        for name in names:
            netlist = load_circuit(name)
            result = AtpgFlow(netlist, config).run()
            summary = result.summary()
            if args.artifact is not None:
                with open(args.artifact, "wb") as handle:
                    handle.write(flow_artifact(name, config, result))
            if args.check_serial:
                from dataclasses import replace

                serial = AtpgFlow(
                    netlist, replace(config, processes=1)
                ).run()
                identical = (
                    result.tests == serial.tests
                    and list(result.status.items())
                    == list(serial.status.items())
                    and list(result.detected_via.items())
                    == list(serial.detected_via.items())
                    and summary == serial.summary()
                )
                summary = dict(summary,
                               identical_artifacts=identical)
                if not identical:
                    status = 1
            manifest_extra["circuits"][name] = summary
            if args.json:
                print(_json.dumps({"circuit": name, **summary},
                                  sort_keys=True))
            else:
                extra = ""
                if "identical_artifacts" in summary:
                    extra = (" | artifacts identical to serial"
                             if summary["identical_artifacts"]
                             else " | ARTIFACT MISMATCH vs serial")
                print(f"{name}: coverage {summary['coverage']:.4f} "
                      f"({summary['detected']}/{summary['n_faults']} "
                      f"detected, "
                      f"{summary['untestable']} untestable "
                      f"[static {summary['untestable_static']}, "
                      f"podem {summary['untestable_podem']}], "
                      f"{summary['aborted']} aborted) | "
                      f"{summary['tests']} tests | "
                      f"random {summary['detected_random']}, "
                      f"podem {summary['detected_podem']}, "
                      f"dropped {summary['detected_drop']} | "
                      f"{summary['podem_calls']} PODEM calls{extra}")
    return status

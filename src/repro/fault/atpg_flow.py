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

Both phases run their fault simulation on one in-process
:class:`~repro.fault.fsim.FaultSimulator`; the flow keeps the active
fault list itself and drops each round's detections from it.

**Portfolio racing** (``race=True``) runs each hard fault under an
ordered portfolio of diverse PODEM policies
(:func:`repro.fault.backends.podem_portfolio`): the committed outcome
is the first non-aborted result *in policy order*, so racing changes
which tests exist but not determinism.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field
from typing import Container, Dict, List, Mapping, Optional, Sequence, Tuple

from ..netlist import Netlist
from ..obs import get_recorder
from .backends import podem_portfolio
from .collapse import collapse_stuck, dominance_collapse_stuck
from .fsim import FaultSimResult, FaultSimulator
from .models import StuckFault, all_stuck_faults
from .podem import AtpgResult, Podem

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
    backend: str = "auto"          # fault-sim backend ("auto" | "int" |
                                   # "numpy"); bit-identical either way,
                                   # see repro.fault.backends
    race: bool = False             # phase-2 portfolio racing: each hard
                                   # fault under diverse PODEM policies,
                                   # first non-aborted in policy order
                                   # wins (deterministic fold)

    def __post_init__(self) -> None:
        # Either would silently skip phase 1.
        if self.n_random_patterns < 0:
            raise ValueError("n_random_patterns must be >= 0")
        if self.max_idle_batches < 1:
            raise ValueError("max_idle_batches must be >= 1")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.backtrack_limit < 0:
            raise ValueError("backtrack_limit must be >= 0")
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
        # Per-policy engines, built lazily (policy 0 reuses self.podem).
        self._engines: Dict[int, Podem] = {0: self.podem}
        self._race_guidance = None
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
                      n_faults=len(faults)):
            sim = FaultSimulator(self.netlist, backend=self.config.backend)
            with rec.span("atpg.phase1_random", cat="atpg",
                          circuit=self.netlist.name):
                survivors = self._random_phase(result, sim, active)
            rec.event("atpg.phase_boundary", cat="atpg",
                      circuit=self.netlist.name,
                      detected_random=len(result.detected_via),
                      survivors=len(survivors),
                      patterns_simulated=result.n_random_simulated)
            with rec.span("atpg.phase2_podem", cat="atpg",
                          circuit=self.netlist.name,
                          survivors=len(survivors)):
                self._podem_phase(survivors, result, sim)
        return result

    # ------------------------------------------------------------------
    def _random_phase(self, result: AtpgFlowResult, sim: FaultSimulator,
                      active: List[StuckFault]) -> List[StuckFault]:
        """Phase 1: batched random patterns, fault dropping.

        Each batch is simulated against the active faults, and its newly
        detected faults leave the list before the next batch.  One
        detecting pattern per newly dropped fault is kept in
        ``result.tests``.  Returns the faults still active.
        """
        config = self.config
        rec = get_recorder()
        rng = random.Random(config.seed)
        nets = self._input_nets
        idle = 0
        batch = 0
        while (active
               and result.n_random_simulated < config.n_random_patterns
               and idle < config.max_idle_batches):
            n = min(config.batch_size,
                    config.n_random_patterns - result.n_random_simulated)
            words = {net: rng.getrandbits(n) for net in nets}
            hits = _hits(sim.simulate_stuck_packed(active, words, n,
                                                   drop_detected=True))
            active = _without(active, hits)
            result.n_random_simulated += n
            keep_bits = 0
            for fault, mask in hits.items():
                result.status[fault] = "detected"
                result.detected_via[fault] = VIA_RANDOM
                keep_bits |= mask & -mask   # one detecting pattern
            if rec.enabled:
                rec.event("atpg.random_batch", cat="atpg", batch=batch,
                          n_patterns=n, detected=len(hits),
                          remaining=len(active))
                rec.incr("atpg.detected_random", len(hits))
                rec.incr("atpg.random_patterns", n)
            batch += 1
            if not hits:
                idle += 1
            else:
                idle = 0
                self._keep_patterns(words, keep_bits, result)
        return active

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
    # phase 2: PODEM on the hard remainder
    # ------------------------------------------------------------------
    def _podem_phase(self, survivors: List[StuckFault],
                     result: AtpgFlowResult, sim: FaultSimulator) -> None:
        """Phase 2: PODEM on survivors, cross-dropping each new test.

        Dominance-kept faults are targeted first: a test for a
        dominated-below fault detects its dominators for free, so
        putting the kept set up front retires the droppable tail by
        simulation instead of search.  The tail is still *walked* --
        any fault neither detected nor proven untestable by the time
        its turn comes gets its own PODEM call, which is what makes
        final coverage match the naive per-fault path.

        A target PODEM detects or proves untestable leaves the active
        list, and every new test is simulated against all remaining
        active faults (drop mode); the faults it detects are committed
        in sorted order.
        """
        if not survivors:
            return
        if self.config.use_dominance and len(survivors) > 1:
            kept = set(dominance_collapse_stuck(self.netlist, survivors))
            order = ([f for f in survivors if f in kept]
                     + [f for f in survivors if f not in kept])
        else:
            order = list(survivors)
        rec = get_recorder()
        active = survivors
        for fault in order:
            if result.status.get(fault) in ("detected", "untestable"):
                continue
            atpg, calls, backtracks = self._fold(fault)
            result.podem_calls += calls
            result.backtracks += backtracks
            rec.incr("atpg.podem_calls", calls)
            if atpg.detected:
                result.tests.append(atpg.test)
                result.status[fault] = "detected"
                result.detected_via[fault] = VIA_PODEM
                rec.incr("atpg.detected_podem")
                active = _without(active, {fault})
                if active:
                    dropped = _hits(sim.simulate_stuck(
                        active, [atpg.test], drop_detected=True))
                    active = _without(active, dropped)
                    rec.incr("atpg.detected_drop", len(dropped))
                    for other in sorted(dropped):
                        result.status[other] = "detected"
                        result.detected_via[other] = VIA_DROP
            elif atpg.status == "untestable":
                result.status[fault] = "untestable"
                result.untestable_via[fault] = VIA_PODEM
                rec.incr("atpg.untestable")
                active = _without(active, {fault})
            else:
                # Aborted: stays in the droppable pool -- a later
                # fault's test may still detect it.
                result.status[fault] = "aborted"
                rec.incr("atpg.aborted")

    def _fold(self, fault: StuckFault) -> Tuple[AtpgResult, int, int]:
        """Run ``fault`` through the policy portfolio in order.

        Returns ``(outcome, calls, backtracks)``: the first non-aborted
        result (all-aborted folds to the last policy's abort), and the
        searches and backtracks it took.  Later policies only run when
        every earlier one aborted, so a non-racing run performs exactly
        one ``generate`` per target.
        """
        calls = 0
        backtracks = 0
        for policy_idx, policy in enumerate(self.policies):
            atpg = self._engine(policy_idx).generate(
                fault,
                backtrack_limit=policy.resolve_limit(
                    self.config.backtrack_limit),
            )
            calls += 1
            backtracks += atpg.backtracks
            if atpg.status != "aborted":
                break
        return atpg, calls, backtracks

    def _portfolio_guidance(self):
        """SCOAP guidance for guided portfolio policies.

        The analyzer's scores when ``use_analysis`` produced some,
        otherwise a lazily computed scan-style SCOAP pass, so every
        guided engine searches with the same scores.
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
        """The engine for one portfolio policy (lazy)."""
        eng = self._engines.get(policy_idx)
        if eng is None:
            policy = self.policies[policy_idx]
            eng = Podem(self.netlist, self.config.backtrack_limit,
                        guidance=(self._portfolio_guidance()
                                  if policy.guided else None))
            self._engines[policy_idx] = eng
        return eng


def _hits(result: FaultSimResult) -> Dict[StuckFault, int]:
    """The detected faults of a drop-mode run, with their masks."""
    return {f: m for f, m in result.detected.items() if m}


def _without(active: List[StuckFault],
             retired: Container[StuckFault]) -> List[StuckFault]:
    """``active`` in order, less the ``retired`` faults."""
    return [f for f in active if f not in retired]


def run_flow(netlist: Netlist,
             faults: Optional[Sequence[StuckFault]] = None,
             config: Optional[AtpgFlowConfig] = None) -> AtpgFlowResult:
    """One-shot convenience wrapper around :class:`AtpgFlow`."""
    return AtpgFlow(netlist, config).run(faults)


#: Bump when the canonical artifact layout changes: two artifacts are
#: only ever byte-compared within one schema.
ARTIFACT_SCHEMA = 3


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
                             "non-aborted in policy order wins")
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
            backend=args.backend,
            race=args.race,
        )
    except ValueError as exc:
        parser.error(str(exc))
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
            manifest_extra["circuits"][name] = summary
            if args.json:
                print(json.dumps({"circuit": name, **summary},
                                  sort_keys=True))
            else:
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
                      f"{summary['podem_calls']} PODEM calls")
    return 0

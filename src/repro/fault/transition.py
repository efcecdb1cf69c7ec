"""Two-pattern transition-delay test generation.

The paper's motivation (Section I) is about *how* the second pattern of
a two-pattern test can be applied:

``arbitrary``
    enhanced scan and FLH: V1 and V2 are independent, so V2 can be any
    stuck-at test and V1 any vector establishing the initial value --
    the best achievable coverage;
``skewed-load``
    V1 is V2 shifted by one scan position: most of V1 is forced by V2,
    leaving only the chain tail and the primary inputs free;
``broadside``
    V2's state part is the circuit's own response to V1: a genuine
    sequential justification problem, here attacked by bounded random
    search (plus functional random pairs), which is exactly why
    broadside "can suffer from poor fault coverage".

The generator runs a standard ATPG loop: deterministic test for the
first undetected fault, then fault-simulate the new pair against every
remaining fault and drop the lucky detections.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set

from ..errors import AtpgError
from ..netlist import Netlist
from ..power.logicsim import LogicSimulator
from .collapse import dominance_collapse_transition
from .fsim import FaultSimulator
from .models import TransitionFault
from .podem import Podem, justify

STYLE_ARBITRARY = "arbitrary"
STYLE_SKEWED = "skewed-load"
STYLE_BROADSIDE = "broadside"
#: Partial enhanced scan (Cheng et al.): only the *held* flip-flops can
#: present different values in V1 and V2; construct the engine with
#: ``held_state`` to use it.
STYLE_PARTIAL = "partial-enhanced"
STYLES = (STYLE_ARBITRARY, STYLE_SKEWED, STYLE_BROADSIDE)

Vector = Dict[str, int]


@dataclass(frozen=True)
class TwoPatternTest:
    """One (V1, V2) pair over the core inputs (PIs + state inputs)."""

    v1: Mapping[str, int]
    v2: Mapping[str, int]


@dataclass
class TransitionAtpgResult:
    """Outcome of transition ATPG under one application style."""

    style: str
    tests: List[TwoPatternTest] = field(default_factory=list)
    detected: Set[TransitionFault] = field(default_factory=set)
    untestable: Set[TransitionFault] = field(default_factory=set)
    aborted: Set[TransitionFault] = field(default_factory=set)
    n_faults: int = 0

    @property
    def coverage(self) -> float:
        """Detected fraction of all targeted faults."""
        if self.n_faults == 0:
            return 0.0
        return len(self.detected) / self.n_faults

    @property
    def effective_coverage(self) -> float:
        """Detected fraction of faults not proven untestable."""
        testable = self.n_faults - len(self.untestable)
        if testable == 0:
            return 0.0
        return len(self.detected) / testable


class TransitionAtpg:
    """Transition-fault ATPG engine for one netlist."""

    def __init__(self, netlist: Netlist, scan_chain: Optional[Sequence[str]] = None,
                 backtrack_limit: int = 50, seed: int = 2005,
                 held_state: Optional[Sequence[str]] = None,
                 deterministic_broadside: bool = True,
                 backend: str = "auto"):
        self.netlist = netlist
        self.fsim = FaultSimulator(netlist, backend=backend)
        self.logic = LogicSimulator(netlist)
        self.podem = Podem(netlist, backtrack_limit)
        self.backtrack_limit = backtrack_limit
        self.rng = random.Random(seed)
        self.pis = tuple(netlist.inputs)
        self.state = tuple(netlist.state_inputs)
        self.scan_chain = tuple(scan_chain) if scan_chain else self.state
        #: For STYLE_PARTIAL: flip-flops whose V1 bits may differ from V2.
        self.held_state = (
            frozenset(held_state) if held_state is not None
            else frozenset(self.state)
        )
        #: Use the two-time-frame engine for deterministic broadside
        #: generation (random-search fallback otherwise).
        self.deterministic_broadside = deterministic_broadside
        self._broadside_engine = None

    def _broadside(self):
        """Lazily built two-frame deterministic broadside engine."""
        if self._broadside_engine is None:
            from .broadside import BroadsideAtpg

            self._broadside_engine = BroadsideAtpg(
                self.netlist, self.backtrack_limit
            )
        return self._broadside_engine

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _random_vector(self) -> Vector:
        return {
            net: self.rng.randint(0, 1)
            for net in self.pis + self.state
        }

    def _next_state(self, vector: Mapping[str, int]) -> Dict[str, int]:
        """State-output response of the core to ``vector``."""
        values = dict(vector)
        self.logic.eval_combinational(values, mask=1)
        return {
            ff: values[data] & 1
            for ff, data in zip(self.logic.dff_names, self.logic.dff_data)
        }

    def _site_value(self, vector: Mapping[str, int], net: str) -> int:
        values = dict(vector)
        self.logic.eval_combinational(values, mask=1)
        return values[net] & 1

    # ------------------------------------------------------------------
    # per-style V1 construction
    # ------------------------------------------------------------------
    def _v1_arbitrary(self, fault: TransitionFault,
                      v2: Vector) -> Optional[Vector]:
        return justify(
            self.netlist, fault.net, fault.initial_value,
            self.backtrack_limit,
        )

    def _v1_skewed(self, fault: TransitionFault,
                   v2: Vector, tries: int = 16) -> Optional[Vector]:
        """V1 with state = V2's state shifted back by one position."""
        chain = self.scan_chain
        forced: Dict[str, int] = {}
        # V2[chain[i]] was V1[chain[i-1]] before the last shift.
        for i in range(1, len(chain)):
            forced[chain[i - 1]] = v2[chain[i]]
        free_state = [chain[-1]] if chain else []
        for _ in range(tries):
            v1 = {net: self.rng.randint(0, 1) for net in self.pis}
            v1.update(forced)
            for net in free_state:
                v1[net] = self.rng.randint(0, 1)
            if self._site_value(v1, fault.net) == fault.initial_value:
                return v1
        return None

    def _v1_broadside(self, fault: TransitionFault,
                      v2: Vector, tries: int = 64) -> Optional[Vector]:
        """V1 whose next-state equals V2's state part."""
        want = {net: v2[net] for net in self.state}
        for _ in range(tries):
            v1 = self._random_vector()
            if self._next_state(v1) != want:
                continue
            if self._site_value(v1, fault.net) == fault.initial_value:
                return v1
        return None

    def _v1_partial(self, fault: TransitionFault,
                    v2: Vector, tries: int = 32) -> Optional[Vector]:
        """V1 free on held flip-flops and PIs; other state bits = V2."""
        forced = {
            net: v2[net] for net in self.state if net not in self.held_state
        }
        free = [net for net in self.state if net in self.held_state]
        for _ in range(tries):
            v1 = {net: self.rng.randint(0, 1) for net in self.pis}
            v1.update(forced)
            for net in free:
                v1[net] = self.rng.randint(0, 1)
            if self._site_value(v1, fault.net) == fault.initial_value:
                return v1
        return None

    def _build_v1(self, style: str, fault: TransitionFault,
                  v2: Vector) -> Optional[Vector]:
        if style == STYLE_ARBITRARY:
            return self._v1_arbitrary(fault, v2)
        if style == STYLE_SKEWED:
            return self._v1_skewed(fault, v2)
        if style == STYLE_BROADSIDE:
            return self._v1_broadside(fault, v2)
        if style == STYLE_PARTIAL:
            return self._v1_partial(fault, v2)
        raise AtpgError(f"unknown application style {style!r}")

    # ------------------------------------------------------------------
    # random functional pairs (broadside's bread and butter)
    # ------------------------------------------------------------------
    def random_pairs(self, style: str, count: int) -> List[TwoPatternTest]:
        """Style-consistent random pattern pairs."""
        pairs: List[TwoPatternTest] = []
        for _ in range(count):
            v1 = self._random_vector()
            if style == STYLE_BROADSIDE:
                state2 = self._next_state(v1)
                v2 = {net: self.rng.randint(0, 1) for net in self.pis}
                v2.update(state2)
            elif style == STYLE_SKEWED:
                v2 = {net: self.rng.randint(0, 1) for net in self.pis}
                chain = self.scan_chain
                if chain:
                    v2[chain[0]] = self.rng.randint(0, 1)
                    for i in range(1, len(chain)):
                        v2[chain[i]] = v1[chain[i - 1]]
            elif style == STYLE_PARTIAL:
                v2 = self._random_vector()
                for net in self.state:
                    if net not in self.held_state:
                        v2[net] = v1[net]  # no transition launchable here
            else:
                v2 = self._random_vector()
            pairs.append(TwoPatternTest(v1, v2))
        return pairs

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def generate(self, faults: Sequence[TransitionFault],
                 style: str = STYLE_ARBITRARY,
                 n_random_pairs: int = 64,
                 max_chunk: int = 60) -> TransitionAtpgResult:
        """Generate a two-pattern test set for ``faults`` under ``style``."""
        result = TransitionAtpgResult(style=style, n_faults=len(faults))
        remaining: List[TransitionFault] = list(faults)

        def drop_detected(pairs: List[TwoPatternTest]) -> None:
            nonlocal remaining
            if not pairs or not remaining:
                return
            for start in range(0, len(pairs), max_chunk):
                chunk = pairs[start: start + max_chunk]
                sim = self.fsim.simulate_transition(
                    remaining, [(t.v1, t.v2) for t in chunk],
                    drop_detected=True,
                )
                newly = {f for f, mask in sim.detected.items() if mask}
                if newly:
                    result.detected.update(newly)
                    remaining = [f for f in remaining if f not in newly]
                if not remaining:
                    return

        # Phase 1: random pairs (cheap coverage, style-consistent).
        if n_random_pairs > 0:
            random_tests = self.random_pairs(style, n_random_pairs)
            drop_detected(random_tests)
            if result.detected:
                result.tests.extend(random_tests)

        # Phase 2: deterministic per-fault generation.  Dominance-kept
        # faults go first: their tests detect the dominating (dropped)
        # faults for free, so the tail usually falls to fault dropping
        # instead of its own PODEM call.  Every fault still gets a turn
        # -- ordering never changes which faults are targeted.
        if len(remaining) > 1:
            kept = set(dominance_collapse_transition(self.netlist,
                                                     remaining))
            ordered = ([f for f in remaining if f in kept]
                       + [f for f in remaining if f not in kept])
        else:
            ordered = list(remaining)
        for fault in ordered:
            if fault in result.detected:
                continue
            if style == STYLE_BROADSIDE and self.deterministic_broadside:
                status, pair = self._broadside().generate(fault)
                if status == "untestable":
                    result.untestable.add(fault)
                    remaining = [f for f in remaining if f is not fault]
                elif status == "detected" and pair is not None:
                    result.tests.append(pair)
                    drop_detected([pair])
                    if fault not in result.detected:
                        result.aborted.add(fault)
                else:
                    result.aborted.add(fault)
                continue
            stuck = fault.equivalent_stuck
            atpg = self.podem.generate(stuck)
            if atpg.status == "untestable":
                result.untestable.add(fault)
                remaining = [f for f in remaining if f is not fault]
                continue
            if atpg.status == "aborted":
                result.aborted.add(fault)
                continue
            v2 = dict(atpg.test)
            v1 = self._build_v1(style, fault, v2)
            if v1 is None:
                if style == STYLE_ARBITRARY:
                    # No vector can initialize the site: untestable.
                    result.untestable.add(fault)
                    remaining = [f for f in remaining if f is not fault]
                else:
                    result.aborted.add(fault)
                continue
            pair = TwoPatternTest(v1, v2)
            result.tests.append(pair)
            drop_detected([pair])
        return result


def compare_styles(netlist: Netlist, faults: Sequence[TransitionFault],
                   scan_chain: Optional[Sequence[str]] = None,
                   seed: int = 2005,
                   n_random_pairs: int = 64,
                   backend: str = "auto",
                   ) -> Dict[str, TransitionAtpgResult]:
    """Transition coverage under all three application styles.

    The paper's Section I/IV claim reproduced: arbitrary (enhanced scan
    = FLH) coverage dominates skewed-load, which dominates broadside.
    ``backend`` threads through to the per-style engines' fault
    simulators (results are backend-independent).
    """
    results: Dict[str, TransitionAtpgResult] = {}
    for style in STYLES:
        engine = TransitionAtpg(netlist, scan_chain, seed=seed,
                                backend=backend)
        results[style] = engine.generate(
            faults, style=style, n_random_pairs=n_random_pairs
        )
    return results

"""PODEM test generation for single stuck-at faults.

A PODEM (Goel 1981) over the combinational core:

* five effective values via a (good, faulty) pair per net, each in
  {0, 1, X};
* objective / backtrace / implication loop, decisions only at primary
  and state inputs;
* D-frontier tracking with X-path check;
* bounded backtracking.

Both machines live in **one pair of three-valued arrays**
(:meth:`repro.netlist.CompiledNetlist.propagate3`'s two-word-per-net
encoding): bit 0 of every word is the fault-free machine and bit 1 the
faulty machine, whose stuck site is forced in ``_begin`` and held by
``propagate3``'s held-bits rule.  Assigning an input is one worklist
propagation with ``mask=3`` that re-implies only the nets whose value
changes in either machine, and writes one undo trail; a backtrack
replays that trail.  The queries read bits: the good value is X when
``(v0 | v1) & 1 == 0``, a net's composite value is settled when
``(v0 | v1) == 3``, and it carries a fault effect when
``((v1 & (v0 >> 1)) | (v0 & (v1 >> 1))) & 1``.

The fault-effect slots are kept incrementally from the same trails.
Implication only refines X to a known value, so once both machines are
known at a net they stay known until a backtrack: an assignment can
only add effects, all of them among the slots its trail wrote, and
undoing it removes exactly those.  So "is an effect at an observation
point" is a counter, and the D-frontier is the sorted unsettled readers
of the effect slots -- no decision rescans the site's cone or every
observation point.  The retained dict-based reference
(``repro.perf.reference.ReferenceThreeValuedSimulator``, built on
:func:`eval3` below) pins bit-identical three-valued results on every
catalog circuit, for the faulty machine too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import AtpgError
from ..netlist import compile_netlist, topological_order
from ..netlist.compiled import (
    OP_AND,
    OP_AOI21,
    OP_AOI22,
    OP_BUF,
    OP_MUX2,
    OP_NAND,
    OP_NOR,
    OP_NOT,
    OP_OAI21,
    OP_OAI22,
    OP_OR,
    OP_XNOR,
    OP_XOR,
    _TWO_INPUT_OFFSET,
)
from .models import StuckFault

X = 2  # unknown in three-valued logic

#: Controlling value and inversion per function (None = no single
#: controlling value, e.g. XOR).
_CONTROLLING = {
    "AND": (0, 0),
    "NAND": (0, 1),
    "OR": (1, 0),
    "NOR": (1, 1),
    "BUF": (None, 0),
    "NOT": (None, 1),
    "XOR": (None, 0),
    "XNOR": (None, 1),
}

#: Same table keyed by generic opcode, for the compiled engine.
_OP_CONTROLLING = {
    OP_AND: (0, 0),
    OP_NAND: (0, 1),
    OP_OR: (1, 0),
    OP_NOR: (1, 1),
    OP_BUF: (None, 0),
    OP_NOT: (None, 1),
    OP_XOR: (None, 0),
    OP_XNOR: (None, 1),
    OP_AOI21: (None, 0),
    OP_AOI22: (None, 0),
    OP_OAI21: (None, 0),
    OP_OAI22: (None, 0),
    OP_MUX2: (None, 0),
}


def eval3(func: str, values: Sequence[int]) -> int:
    """Three-valued evaluation (0/1/X) of a gate function.

    This is the scalar reference semantics; the compiled two-word
    kernel (:meth:`repro.netlist.CompiledNetlist.eval3_into`) must stay
    bit-identical to it.
    """
    if func == "BUF":
        return values[0]
    if func == "NOT":
        return _inv3(values[0])
    if func in ("AND", "NAND"):
        out = _and3(values)
        return _inv3(out) if func == "NAND" else out
    if func in ("OR", "NOR"):
        out = _or3(values)
        return _inv3(out) if func == "NOR" else out
    if func in ("XOR", "XNOR"):
        out = 0
        for v in values:
            if v == X:
                return X
            out ^= v
        return (1 - out) if func == "XNOR" else out
    if func == "AOI21":
        a1, a2, b = values
        return _inv3(_or3((_and3((a1, a2)), b)))
    if func == "AOI22":
        a1, a2, b1, b2 = values
        return _inv3(_or3((_and3((a1, a2)), _and3((b1, b2)))))
    if func == "OAI21":
        a1, a2, b = values
        return _inv3(_and3((_or3((a1, a2)), b)))
    if func == "OAI22":
        a1, a2, b1, b2 = values
        return _inv3(_and3((_or3((a1, a2)), _or3((b1, b2)))))
    if func == "MUX2":
        sel, d0, d1 = values
        if sel == 0:
            return d0
        if sel == 1:
            return d1
        if d0 == d1 and d0 != X:
            return d0
        return X
    raise AtpgError(f"eval3: unsupported function {func!r}")


def _inv3(v: int) -> int:
    return X if v == X else 1 - v


def _and3(values: Sequence[int]) -> int:
    if any(v == 0 for v in values):
        return 0
    if all(v == 1 for v in values):
        return 1
    return X


def _or3(values: Sequence[int]) -> int:
    if any(v == 1 for v in values):
        return 1
    if all(v == 0 for v in values):
        return 0
    return X


@dataclass
class AtpgResult:
    """Outcome of one PODEM run."""

    fault: StuckFault
    status: str              # "detected", "untestable", "aborted"
    test: Optional[Dict[str, int]] = None  # full input assignment (X -> 0)
    backtracks: int = 0

    @property
    def detected(self) -> bool:
        """True if a test was found."""
        return self.status == "detected"


@dataclass(frozen=True)
class PodemPolicy:
    """One search policy of an engine portfolio.

    A policy is the *complete* recipe for one deterministic PODEM run:
    guided or unguided backtrace, and the backtrack budget.  Portfolio
    racing (see :func:`repro.fault.backends.podem_portfolio`) runs the
    same fault under several policies; because each policy's search is
    a pure function of ``(netlist, fault, policy)``, the portfolio
    outcome folded in a fixed policy order is deterministic.
    """

    name: str = "base"
    guided: bool = False               # SCOAP-guided backtrace/objective
    backtrack_limit: Optional[int] = None  # None = the flow's default

    def resolve_limit(self, default: int) -> int:
        return default if self.backtrack_limit is None else self.backtrack_limit


class Podem:
    """PODEM engine bound to one netlist (compiled-array internals).

    ``guidance`` (a :class:`repro.analysis.ScoapScores` over the same
    netlist) switches backtrace and objective selection from static
    depth to SCOAP costs: backtrace descends into the fanin that is
    cheapest to set to the needed value, and the D-frontier is worked
    most-observable gate first.  With ``guidance=None`` (the default)
    the search is bit-identical to the unguided engine.
    """

    def __init__(self, netlist, backtrack_limit: int = 100,
                 guidance=None):
        self.netlist = netlist
        self.backtrack_limit = backtrack_limit
        self._guidance = guidance
        self.compiled = compile_netlist(netlist)
        compiled = self.compiled
        self.order: List[str] = list(compiled.order)
        self.pis: Tuple[str, ...] = tuple(netlist.core_inputs)
        self.observe: Tuple[str, ...] = tuple(netlist.core_outputs)
        self._n_prefix = compiled.n_prefix
        self._n_slots = len(compiled.names)
        self._observed = frozenset(compiled.observe_idx)

        # Per-eval-position controlling value / inversion, from opcodes.
        ctrl: List[Optional[int]] = []
        inv: List[int] = []
        for op in compiled.ops:
            code = op - _TWO_INPUT_OFFSET if op >= _TWO_INPUT_OFFSET else op
            c, i = _OP_CONTROLLING[code]
            ctrl.append(c)
            inv.append(i)
        self._ctrl = ctrl
        self._inv = inv

        # Static level map for backtrace guidance (input depth).
        depth = [0] * self._n_slots
        base = self._n_prefix
        for p, fanin in enumerate(compiled.fanins):
            depth[base + p] = 1 + max(depth[f] for f in fanin)
        self._depth = depth

        # Mutable per-generate state (set up by _begin): both machines
        # packed per word, bit 0 fault-free and bit 1 faulty.
        self._v0: List[int] = []
        self._v1: List[int] = []
        self._site: Optional[int] = None
        self._site_pos: int = -1
        #: Slots carrying a fault effect (both machines known and
        #: different), and how many of them are observation points.
        self._effects: Set[int] = set()
        self._observed_effects = 0

    # ------------------------------------------------------------------
    # incremental three-valued simulation state
    # ------------------------------------------------------------------
    def _begin(self, site: Optional[int], fault_value: int = 0) -> None:
        """Reset to the all-X state, with the fault site forced.

        With every core input at X the fault-free machine is X on every
        net (no gate evaluates to a constant from all-X fanins), so the
        fresh zero arrays *are* its full-simulation result.  The faulty
        machine (bit 1) forces the site and propagates the
        controlling-value implications through its cone.  Without a
        site (``justify``) both bits hold the fault-free machine.
        """
        n = self._n_slots
        self._v0 = v0 = [0] * n
        self._v1 = v1 = [0] * n
        self._site = site
        self._effects = set()
        self._observed_effects = 0
        if site is None:
            self._site_pos = -1
            return
        self._site_pos = (site - self._n_prefix
                          if site >= self._n_prefix else -1)
        if fault_value:
            v1[site] = 2
        else:
            v0[site] = 2
        # The site's cone never contains the site: nothing to hold yet.
        # The good machine is X everywhere, so no slot carries an effect.
        self.compiled.propagate3(v0, v1, 3, (site,))

    def _assign_pi(self, slot: int, value: int) -> List[Tuple[int, int, int]]:
        """Assign one core input slot in both machines; returns the
        ``(slot, old0, old1)`` undo trail.

        A decision on the fault site itself sets only the fault-free
        bit: the faulty machine holds the stuck value there.
        """
        bits = 1 if slot == self._site else 3
        v0, v1 = self._v0, self._v1
        trail = [(slot, v0[slot], v1[slot])]
        v0[slot] = (v0[slot] & ~bits) | (0 if value else bits)
        v1[slot] = (v1[slot] & ~bits) | (bits if value else 0)
        self.compiled.propagate3(v0, v1, 3, (slot,), hold=self._site_pos,
                                 held=2, trail=trail)
        self._add_effects(trail)
        return trail

    def _add_effects(self, trail: List[Tuple[int, int, int]]) -> None:
        """Record the fault effects among the slots a trail wrote.

        Implication only refines X, so a slot that already carried an
        effect is known in both machines and is never rewritten: every
        new effect is a trail slot, and none was an effect before.  As
        ``v0 & v1 == 0``, an effect is exactly ``(v0, v1)`` equal to
        ``(1, 2)`` (good 0, faulty 1) or ``(2, 1)``.
        """
        v0, v1 = self._v0, self._v1
        effects = self._effects
        observed = self._observed
        for slot, _, _ in trail:
            a0 = v0[slot]
            if (a0 == 1 or a0 == 2) and v1[slot] == 3 - a0:
                effects.add(slot)
                if slot in observed:
                    self._observed_effects += 1

    def _undo(self, trail: List[Tuple[int, int, int]]) -> None:
        """Restore both machines from an assignment's undo trail.

        The effects the assignment added are exactly its trail slots
        that carry one now; they go with it.
        """
        v0, v1 = self._v0, self._v1
        effects = self._effects
        for slot, old0, old1 in reversed(trail):
            if slot in effects:
                effects.remove(slot)
                if slot in self._observed:
                    self._observed_effects -= 1
            v0[slot] = old0
            v1[slot] = old1

    # ------------------------------------------------------------------
    # composite-value queries
    # ------------------------------------------------------------------
    def _fault_at_output(self) -> bool:
        """Does a fault effect sit on an observation point?"""
        return self._observed_effects > 0

    def _d_frontier(self) -> List[int]:
        """Eval positions whose composite output is still unknown but
        with a definite fault effect (good != faulty, both known) on an
        input: the unsettled readers of the effect slots, ascending."""
        v0, v1 = self._v0, self._v1
        fanout_pos = self.compiled._fanout_pos
        base = self._n_prefix
        readers: Set[int] = set()
        for slot in self._effects:
            readers.update(fanout_pos[slot])
        # A settled reader has its composite value (propagated or blocked).
        return sorted(p for p in readers
                      if (v0[base + p] | v1[base + p]) != 3)

    def _x_path_exists(self, frontier: List[int]) -> bool:
        """Can a fault effect still reach an observation point?"""
        if not frontier:
            return False
        v0, v1 = self._v0, self._v1
        fanout_pos = self.compiled._fanout_pos
        base = self._n_prefix
        observed = self._observed
        reachable: Set[int] = {base + p for p in frontier}
        stack = list(reachable)
        while stack:
            slot = stack.pop()
            if slot in observed:
                return True
            for pos in fanout_pos[slot]:
                sink = base + pos
                if sink in reachable:
                    continue
                if (v0[sink] | v1[sink]) == 3:
                    continue  # both machines known: no X-path through it
                reachable.add(sink)
                stack.append(sink)
        return False

    # ------------------------------------------------------------------
    def _objective(self, site: int, fault_value: int,
                   frontier: List[int]) -> Optional[Tuple[int, int]]:
        """Next (slot, value) goal: activate the fault, then propagate."""
        v0, v1 = self._v0, self._v1
        if not (v0[site] | v1[site]) & 1:
            return site, 1 - fault_value
        fanins = self.compiled.fanins
        guidance = self._guidance
        if guidance is not None and len(frontier) > 1:
            base = self._n_prefix
            co = guidance.co
            frontier = sorted(frontier, key=lambda p: (co[base + p], p))
        for p in frontier:
            ctrl = self._ctrl[p]
            value = 0 if ctrl is None else 1 - ctrl
            candidates = [f for f in fanins[p] if not (v0[f] | v1[f]) & 1]
            if not candidates:
                continue
            if guidance is None:
                return candidates[0], value
            cc = guidance.cc1 if value else guidance.cc0
            return min(candidates, key=lambda f: (cc[f], f)), value
        return None

    def _backtrace(self, slot: int, value: int) -> Tuple[int, int]:
        """Walk an objective back to an unassigned primary/state input."""
        v0, v1 = self._v0, self._v1
        fanins = self.compiled.fanins
        depth = self._depth
        base = self._n_prefix
        current, target = slot, value
        while current >= base:
            p = current - base
            if self._inv[p]:
                target = 1 - target
            fanin = fanins[p]
            # Choose the X input closest to the inputs (easiest set);
            # with SCOAP guidance, the one cheapest to drive to the
            # target value (depth breaks ties).
            candidates = [f for f in fanin if not (v0[f] | v1[f]) & 1]
            if not candidates:
                # Everything justified already; pick any input to move on.
                candidates = list(fanin)
            guidance = self._guidance
            if guidance is None:
                current = min(candidates, key=lambda f: depth[f])
            else:
                cc = guidance.cc1 if target else guidance.cc0
                current = min(candidates,
                              key=lambda f: (cc[f], depth[f]))
            # Complex gates (XOR/MUX/AOI/OAI) have no simple polarity:
            # aim for 'target' as-is; implication corrects wrong guesses.
        return current, target

    def _backtrack(self, assignment: Dict[int, int],
                   decisions: List[list]) -> bool:
        """Flip the last unflipped decision; False if none remain.

        Undoing an assignment restores the saved trail -- no
        re-propagation at all on the way up the decision stack.
        """
        while decisions and decisions[-1][2]:
            slot, _, _, trail = decisions.pop()
            del assignment[slot]
            self._undo(trail)
        if not decisions:
            return False
        slot, value, _, trail = decisions.pop()
        self._undo(trail)
        flipped = 1 - value
        trail = self._assign_pi(slot, flipped)
        decisions.append([slot, flipped, 1, trail])
        assignment[slot] = flipped
        return True

    # ------------------------------------------------------------------
    def generate(self, fault: StuckFault,
                 require: Sequence[Tuple[str, int]] = (),
                 backtrack_limit: Optional[int] = None) -> AtpgResult:
        """Try to generate a test for ``fault``.

        ``require`` adds side justification objectives: (net, value)
        pairs that must hold in the good machine alongside detection.
        Used by the two-time-frame broadside generator, where the
        frame-1 copy of the fault site must carry the initial value.

        ``backtrack_limit`` overrides the engine's default budget for
        this call only (portfolio policies).
        """
        compiled = self.compiled
        site = compiled.index.get(fault.net)
        if site is None:
            raise AtpgError(f"fault site {fault.net!r} not in netlist")
        req: List[Tuple[int, int]] = []
        for net, value in require:
            slot = compiled.index.get(net)
            if slot is None:
                raise AtpgError(f"require net {net!r} not in netlist")
            req.append((slot, value))
        limit = (self.backtrack_limit if backtrack_limit is None
                 else backtrack_limit)
        self._begin(site, fault.value)
        v0, v1 = self._v0, self._v1
        assignment: Dict[int, int] = {}
        decisions: List[list] = []  # [slot, value, flipped, trail]
        backtracks = 0
        names = compiled.names
        n_prefix = self._n_prefix

        while True:
            req_conflict = any(
                (v0[s] if value else v1[s]) & 1 for s, value in req
            )
            req_pending = [
                (s, value) for s, value in req if not (v0[s] | v1[s]) & 1
            ]
            detected = self._fault_at_output()
            if not req_conflict and not req_pending and detected:
                test = {
                    names[s]: assignment.get(s, 0) for s in range(n_prefix)
                }
                return AtpgResult(fault, "detected", test, backtracks)

            frontier = self._d_frontier()
            failed = req_conflict
            if (v0[site] | v1[site]) & 1:
                if (v1[site] if fault.value else v0[site]) & 1:
                    failed = True        # fault can no longer be excited
                elif not detected and not self._x_path_exists(frontier):
                    failed = True        # effect can no longer propagate

            objective = None
            if not failed:
                objective = self._objective(site, fault.value, frontier)
                if objective is None and req_pending:
                    objective = req_pending[0]
                if objective is None:
                    failed = True

            if not failed:
                slot, value = objective
                pi, pi_value = self._backtrace(slot, value)
                if pi not in assignment:
                    trail = self._assign_pi(pi, pi_value)
                    decisions.append([pi, pi_value, 0, trail])
                    assignment[pi] = pi_value
                    continue
                # Backtrace landed on a decided input: the objective is
                # unreachable under the current decisions -- backtrack.

            if not self._backtrack(assignment, decisions):
                return AtpgResult(fault, "untestable", None, backtracks)
            backtracks += 1
            if backtracks > limit:
                return AtpgResult(fault, "aborted", None, backtracks)

    # ------------------------------------------------------------------
    def justify(self, net: str, value: int) -> Optional[Dict[str, int]]:
        """Find an input assignment setting ``net`` to ``value``.

        Good-machine-only search over the same incremental engine (both
        bits of every word hold the fault-free machine); returns a full
        input vector (X -> 0) or None if ``net`` cannot take ``value``
        within the backtrack limit.
        """
        compiled = self.compiled
        slot = compiled.index.get(net)
        if slot is None:
            raise AtpgError(f"net {net!r} not in netlist")
        self._begin(None)
        v0, v1 = self._v0, self._v1
        assignment: Dict[int, int] = {}
        decisions: List[list] = []  # [slot, value, flipped, trail]
        backtracks = 0
        names = compiled.names

        while True:
            if (v1[slot] if value else v0[slot]) & 1:
                return {
                    names[s]: assignment.get(s, 0)
                    for s in range(self._n_prefix)
                }
            if (v0[slot] | v1[slot]) & 1:
                # Wrong value under current decisions: backtrack.
                if not self._backtrack(assignment, decisions):
                    return None
                backtracks += 1
                if backtracks > self.backtrack_limit:
                    return None
                continue
            pi, pi_value = self._backtrace(slot, value)
            if pi in assignment:
                if not self._backtrack(assignment, decisions):
                    return None
                backtracks += 1
                if backtracks > self.backtrack_limit:
                    return None
                continue
            trail = self._assign_pi(pi, pi_value)
            decisions.append([pi, pi_value, 0, trail])
            assignment[pi] = pi_value


def generate_tests(netlist, faults: Sequence[StuckFault],
                   backtrack_limit: int = 100) -> List[AtpgResult]:
    """Run PODEM over a fault list, one call per fault (no dropping).

    This is the naive per-fault path; the two-phase fault-dropping
    pipeline (:mod:`repro.fault.atpg_flow`) reaches the same coverage
    far faster and should be preferred for whole-circuit runs.
    """
    engine = Podem(netlist, backtrack_limit)
    return [engine.generate(fault) for fault in faults]


def justify(netlist, net: str, value: int,
            backtrack_limit: int = 100) -> Optional[Dict[str, int]]:
    """Find an input assignment setting ``net`` to ``value``.

    Used by the transition-test generator to build initialization
    patterns (V1).  Returns a full input vector or None if ``net``
    cannot take ``value``.
    """
    return Podem(netlist, backtrack_limit).justify(net, value)


# Re-export for callers that levelize through this module historically.
__all__ = [
    "AtpgResult",
    "Podem",
    "PodemPolicy",
    "X",
    "eval3",
    "generate_tests",
    "justify",
    "topological_order",
]

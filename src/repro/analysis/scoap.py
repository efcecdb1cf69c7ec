"""SCOAP testability measures over the compiled flat arrays.

Classic Goldstein SCOAP (1979): per-net 0/1-controllability (``CC0`` /
``CC1``, the minimum number of pin assignments needed to force the net
to that value) and observability (``CO``, assignments needed to
sensitize the net to an observation point).  Everything runs on the
:class:`~repro.netlist.CompiledNetlist` arrays -- one forward pass in
position order for controllability, one reverse pass for observability
-- so the cost is O(pins), not O(nets^2), and a pass over s38584 is
milliseconds.

Scan styles (:mod:`repro.dft.styles`) change what "controllable" and
"observable" mean for the sequential boundary:

``scan`` / ``enhanced`` / ``mux`` / ``flh``
    Full-scan access: every state input is directly settable by a shift
    (CC = 1) and every flip-flop data net is directly captured (CO = 0).
``none``
    No scan.  State inputs are only controllable through the previous
    cycle's data net and state outputs are only observable through the
    next cycle's fanout, so the measures are computed by a bounded
    fixed-point iteration over the sequential loop, each crossing of a
    flip-flop adding ``seq_penalty``.

For the styles that support arbitrary two-pattern application the
*launch* (second-pattern) controllability of a state input equals its
ordinary scan controllability; under plain ``scan`` the launch value is
functionally captured from the first pattern, so
``launch_cc0``/``launch_cc1`` are recomputed with state inputs costed
through their data nets.  This is exactly the per-fault difficulty
signal the paper's FLH-vs-scan comparisons turn on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import ReproError
from ..netlist import Netlist, compile_netlist
from ..netlist.compiled import (
    CompiledNetlist,
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

INF = float("inf")

#: Styles with direct scan access to the state boundary.
SCAN_STYLES = ("scan", "enhanced", "mux", "flh")

#: Styles whose launch (V2) state values are fully controllable.
ARBITRARY_LAUNCH_STYLES = ("enhanced", "mux", "flh")

#: Recognized style arguments (superset of :data:`repro.dft.styles.STYLES`
#: minus nothing -- ``none`` means unscanned sequential).
KNOWN_STYLES = ("none",) + SCAN_STYLES

#: Default cost of crossing the sequential boundary once (style ``none``).
DEFAULT_SEQ_PENALTY = 10

#: Fixed-point iteration bound for the sequential styles.
DEFAULT_MAX_ITERATIONS = 16


def _norm(op: int) -> int:
    """Generic opcode for a possibly two-input-specialized opcode."""
    return op - _TWO_INPUT_OFFSET if op >= _TWO_INPUT_OFFSET else op


@dataclass
class ScoapScores:
    """Per-slot SCOAP measures for one compiled netlist under one style.

    All arrays are indexed by compiled value slot (``compiled.index``);
    unreachable measures are ``inf``.  ``launch_cc0``/``launch_cc1``
    are the second-pattern controllabilities (see module docstring) --
    identical to ``cc0``/``cc1`` except under plain ``scan``.
    """

    style: str
    names: Tuple[str, ...]
    index: Dict[str, int] = field(repr=False)
    cc0: List[float] = field(repr=False)
    cc1: List[float] = field(repr=False)
    co: List[float] = field(repr=False)
    launch_cc0: List[float] = field(repr=False)
    launch_cc1: List[float] = field(repr=False)

    def controllability(self, net: str) -> Tuple[float, float]:
        slot = self.index[net]
        return self.cc0[slot], self.cc1[slot]

    def observability(self, net: str) -> float:
        return self.co[self.index[net]]

    def difficulty(self, net: str) -> float:
        """Combined testability difficulty: CC0 + CC1 + CO."""
        slot = self.index[net]
        return self.cc0[slot] + self.cc1[slot] + self.co[slot]

    def cost(self, slot: int, value: int) -> float:
        """Controllability cost of setting ``slot`` to ``value``."""
        return self.cc1[slot] if value else self.cc0[slot]

    def hardest_nets(self, n: int = 10) -> List[Tuple[str, float]]:
        """The ``n`` highest-difficulty nets (finite scores first)."""
        scored = [
            (name, self.cc0[i] + self.cc1[i] + self.co[i])
            for i, name in enumerate(self.names)
        ]
        scored.sort(key=lambda item: (-item[1], item[0]))
        return scored[:n]

    def to_rows(self) -> List[Dict[str, object]]:
        """JSON-friendly per-net rows (``inf`` serialized as ``None``)."""
        def num(v: float) -> Optional[float]:
            return None if v == INF else v

        return [
            {
                "net": name,
                "cc0": num(self.cc0[i]),
                "cc1": num(self.cc1[i]),
                "co": num(self.co[i]),
            }
            for i, name in enumerate(self.names)
        ]


def _controllability_pass(compiled: CompiledNetlist,
                          cc0: List[float], cc1: List[float]) -> None:
    """One forward pass: fill eval-node slots from the prefix values."""
    base = compiled.n_prefix
    for p, op in enumerate(compiled.ops):
        fanin = compiled.fanins[p]
        code = _norm(op)
        a0 = [cc0[f] for f in fanin]
        a1 = [cc1[f] for f in fanin]
        if code == OP_AND:
            v1 = sum(a1) + 1
            v0 = min(a0) + 1
        elif code == OP_NAND:
            v0 = sum(a1) + 1
            v1 = min(a0) + 1
        elif code == OP_OR:
            v0 = sum(a0) + 1
            v1 = min(a1) + 1
        elif code == OP_NOR:
            v1 = sum(a0) + 1
            v0 = min(a1) + 1
        elif code == OP_NOT:
            v0 = a1[0] + 1
            v1 = a0[0] + 1
        elif code == OP_BUF:
            v0 = a0[0] + 1
            v1 = a1[0] + 1
        elif code in (OP_XOR, OP_XNOR):
            # Parity DP: cheapest way to an even / odd number of ones.
            even, odd = 0.0, INF
            for f0, f1 in zip(a0, a1):
                even, odd = (min(even + f0, odd + f1),
                             min(even + f1, odd + f0))
            if code == OP_XOR:
                v0, v1 = even + 1, odd + 1
            else:
                v0, v1 = odd + 1, even + 1
        elif code == OP_AOI21:
            # out = NOT(a·b + c)
            v1 = min(a0[0], a0[1]) + a0[2] + 1
            v0 = min(a1[0] + a1[1], a1[2]) + 1
        elif code == OP_AOI22:
            v1 = min(a0[0], a0[1]) + min(a0[2], a0[3]) + 1
            v0 = min(a1[0] + a1[1], a1[2] + a1[3]) + 1
        elif code == OP_OAI21:
            # out = NOT((a + b)·c)
            v1 = min(a0[0] + a0[1], a0[2]) + 1
            v0 = min(a1[0], a1[1]) + a1[2] + 1
        elif code == OP_OAI22:
            v1 = min(a0[0] + a0[1], a0[2] + a0[3]) + 1
            v0 = min(a1[0], a1[1]) + min(a1[2], a1[3]) + 1
        elif code == OP_MUX2:
            # out = d1 if sel else d0
            v0 = min(a0[0] + a0[1], a1[0] + a0[2], a0[1] + a0[2]) + 1
            v1 = min(a0[0] + a1[1], a1[0] + a1[2], a1[1] + a1[2]) + 1
        else:  # pragma: no cover - opcode table is closed
            raise ReproError(f"SCOAP: unsupported opcode {op}")
        cc0[base + p] = v0
        cc1[base + p] = v1


def _observability_pass(compiled: CompiledNetlist,
                        cc0: List[float], cc1: List[float],
                        co: List[float]) -> None:
    """One reverse pass: propagate CO from outputs toward the inputs.

    ``co`` must be pre-seeded at the observed slots (0 there, ``inf``
    elsewhere); position order is topological, so walking positions in
    reverse finalizes every eval node's CO before its fanins read it.
    """
    base = compiled.n_prefix
    ops = compiled.ops
    fanins = compiled.fanins
    for p in range(len(ops) - 1, -1, -1):
        out = co[base + p]
        if out == INF:
            continue
        fanin = fanins[p]
        code = _norm(ops[p])
        for j, f in enumerate(fanin):
            if code in (OP_AND, OP_NAND):
                cost = out + 1
                for k, g in enumerate(fanin):
                    if k != j:
                        cost += cc1[g]
            elif code in (OP_OR, OP_NOR):
                cost = out + 1
                for k, g in enumerate(fanin):
                    if k != j:
                        cost += cc0[g]
            elif code in (OP_NOT, OP_BUF):
                cost = out + 1
            elif code in (OP_XOR, OP_XNOR):
                cost = out + 1
                for k, g in enumerate(fanin):
                    if k != j:
                        cost += min(cc0[g], cc1[g])
            elif code == OP_AOI21:
                a, b, c = fanin
                if j == 0:
                    cost = out + cc1[b] + cc0[c] + 1
                elif j == 1:
                    cost = out + cc1[a] + cc0[c] + 1
                else:
                    cost = out + min(cc0[a], cc0[b]) + 1
            elif code == OP_AOI22:
                a, b, c, d = fanin
                if j == 0:
                    cost = out + cc1[b] + min(cc0[c], cc0[d]) + 1
                elif j == 1:
                    cost = out + cc1[a] + min(cc0[c], cc0[d]) + 1
                elif j == 2:
                    cost = out + cc1[d] + min(cc0[a], cc0[b]) + 1
                else:
                    cost = out + cc1[c] + min(cc0[a], cc0[b]) + 1
            elif code == OP_OAI21:
                a, b, c = fanin
                if j == 0:
                    cost = out + cc0[b] + cc1[c] + 1
                elif j == 1:
                    cost = out + cc0[a] + cc1[c] + 1
                else:
                    cost = out + min(cc1[a], cc1[b]) + 1
            elif code == OP_OAI22:
                a, b, c, d = fanin
                if j == 0:
                    cost = out + cc0[b] + min(cc1[c], cc1[d]) + 1
                elif j == 1:
                    cost = out + cc0[a] + min(cc1[c], cc1[d]) + 1
                elif j == 2:
                    cost = out + cc0[d] + min(cc1[a], cc1[b]) + 1
                else:
                    cost = out + cc0[c] + min(cc1[a], cc1[b]) + 1
            else:  # OP_MUX2
                s, d0, d1 = fanin
                if j == 0:
                    cost = out + min(cc0[d0] + cc1[d1],
                                     cc1[d0] + cc0[d1]) + 1
                elif j == 1:
                    cost = out + cc0[s] + 1
                else:
                    cost = out + cc1[s] + 1
            if cost < co[f]:
                co[f] = cost


def compute_scoap(netlist: Netlist, style: str = "scan",
                  seq_penalty: int = DEFAULT_SEQ_PENALTY,
                  max_iterations: int = DEFAULT_MAX_ITERATIONS,
                  ) -> ScoapScores:
    """SCOAP CC0/CC1/CO for every net of ``netlist`` under ``style``.

    See the module docstring for the style semantics.  The sequential
    fixed point (style ``none``) iterates at most ``max_iterations``
    times and stops early once the measures are stable; measures that
    stay ``inf`` are genuinely uncontrollable/unobservable within the
    iteration bound.
    """
    if style not in KNOWN_STYLES:
        raise ReproError(
            f"unknown SCOAP style {style!r} (known: {', '.join(KNOWN_STYLES)})"
        )
    compiled = compile_netlist(netlist)
    n = len(compiled.names)
    n_pi = compiled.n_inputs
    base = compiled.n_prefix

    cc0 = [INF] * n
    cc1 = [INF] * n
    for slot in range(n_pi):
        cc0[slot] = cc1[slot] = 1.0
    scan = style in SCAN_STYLES

    #: dff index -> (state-input slot, data-net slot)
    dff_slots = [
        (n_pi + i, compiled.index[data])
        for i, data in enumerate(compiled.dff_data)
    ]

    if scan:
        for state_slot, _ in dff_slots:
            cc0[state_slot] = cc1[state_slot] = 1.0
        _controllability_pass(compiled, cc0, cc1)
    else:
        for _ in range(max(1, max_iterations)):
            _controllability_pass(compiled, cc0, cc1)
            changed = False
            for state_slot, data_slot in dff_slots:
                for cc in (cc0, cc1):
                    candidate = cc[data_slot] + seq_penalty
                    if candidate < cc[state_slot]:
                        cc[state_slot] = candidate
                        changed = True
            if not changed:
                break

    co = [INF] * n
    for net in netlist.outputs:
        slot = compiled.index.get(net)
        if slot is not None:
            co[slot] = 0.0
    if scan:
        for _, data_slot in dff_slots:
            co[data_slot] = 0.0
        _observability_pass(compiled, cc0, cc1, co)
    else:
        for _ in range(max(1, max_iterations)):
            _observability_pass(compiled, cc0, cc1, co)
            changed = False
            for state_slot, data_slot in dff_slots:
                candidate = co[state_slot] + seq_penalty
                if candidate < co[data_slot]:
                    co[data_slot] = candidate
                    changed = True
            if not changed:
                break

    # Launch (second-pattern) controllability.
    if style in ARBITRARY_LAUNCH_STYLES or style == "none":
        launch_cc0, launch_cc1 = list(cc0), list(cc1)
    else:
        # Plain scan: the V2 state is captured functionally from V1.
        launch_cc0 = [INF] * n
        launch_cc1 = [INF] * n
        for slot in range(n_pi):
            launch_cc0[slot] = launch_cc1[slot] = 1.0
        for state_slot, data_slot in dff_slots:
            launch_cc0[state_slot] = cc0[data_slot] + 1
            launch_cc1[state_slot] = cc1[data_slot] + 1
        _controllability_pass(compiled, launch_cc0, launch_cc1)

    return ScoapScores(
        style=style,
        names=compiled.names,
        index=compiled.index,
        cc0=cc0,
        cc1=cc1,
        co=co,
        launch_cc0=launch_cc0,
        launch_cc1=launch_cc1,
    )


def scan_cell_difficulty(netlist: Netlist, scores: ScoapScores,
                         ) -> List[Dict[str, object]]:
    """Per-scan-cell difficulty rows for hold-cell selection.

    One row per flip-flop, sorted hardest first.  ``launch_gap`` is the
    extra launch-controllability cost this cell's first-level gates pay
    when the cell cannot hold (the signal ROADMAP item 4's promotion
    loop ranks by); ``difficulty`` aggregates the SCOAP scores of the
    cell's unique first-level gates plus the cell's own observability.
    """
    compiled = compile_netlist(netlist)
    rows: List[Dict[str, object]] = []
    for i, dff in enumerate(compiled.dff_names):
        state_slot = compiled.n_inputs + i
        first_level = sorted(netlist.fanout(dff))
        total = scores.co[state_slot]
        launch_gap = (scores.launch_cc0[state_slot]
                      + scores.launch_cc1[state_slot]
                      - scores.cc0[state_slot] - scores.cc1[state_slot])
        for sink in first_level:
            slot = compiled.index.get(sink)
            if slot is None:
                continue
            for measure in (scores.cc0[slot], scores.cc1[slot],
                            scores.co[slot]):
                if measure != INF:
                    total += measure
        rows.append({
            "cell": dff,
            "n_first_level": len(first_level),
            "difficulty": total if total != INF else None,
            "launch_gap": launch_gap if launch_gap != INF else None,
        })
    rows.sort(key=lambda row: (-(row["difficulty"] or 0.0), row["cell"]))
    return rows

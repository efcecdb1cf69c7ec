"""Compiled netlist kernels: index-based flat arrays for the hot loops.

Every simulator in the repository used to walk gates through per-net
string-keyed dict lookups (``netlist.gate(name)`` + ``values[fanin]``
per pin).  This module lowers a :class:`~repro.netlist.Netlist` once
into flat parallel arrays -- integer opcodes and integer fanin indices
-- that the logic simulator, the fault simulator's event-driven fault
propagation and STA arrival propagation all share:

* value slot ``i`` holds the word for net ``names[i]``; primary inputs
  come first, then state inputs (DFF outputs), then every combinational
  gate in topological order;
* eval node ``p`` computes slot ``n_prefix + p`` from ``ops[p]`` and
  ``fanins[p]`` (indices into the value array);
* ``_fanout_pos[slot]`` lists the eval positions reading a slot, in
  ascending order (position order *is* topological order), so the
  event-driven kernels (:meth:`CompiledNetlist.propagate3`,
  :meth:`CompiledNetlist.detect_sites`) wake only the readers of nets
  that changed;
* ``observe_rank[slot]`` is the slot's first index in ``observe_idx``
  (``len(observe_idx)`` when unobserved), which orders fault effects
  for the early-exit detection contract; ``_reach_rank[p]`` is the best
  such rank at or downstream of eval position ``p``.

Compiled forms are cached process-wide, keyed on a **content hash** of
the netlist (name, port order, and every gate record), so repeated
construction of simulators over the same circuit -- the common shape of
the table experiments -- compiles exactly once.  Mutating a netlist
changes its hash, which simply misses the cache; stale entries are only
dropped via :func:`clear_compile_cache`.
"""

from __future__ import annotations

import hashlib
import sys
from heapq import heappop, heappush
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import NetlistError
from ..obs import get_recorder
from .netlist import Netlist
from .graph import topological_order

# Generic n-ary opcodes (match COMBINATIONAL_FUNCS).
OP_AND = 0
OP_NAND = 1
OP_OR = 2
OP_NOR = 3
OP_XOR = 4
OP_XNOR = 5
OP_NOT = 6
OP_BUF = 7
OP_AOI21 = 8
OP_AOI22 = 9
OP_OAI21 = 10
OP_OAI22 = 11
OP_MUX2 = 12
# Two-input specializations (the overwhelmingly common case after
# technology mapping) -- generic code + _TWO_INPUT_OFFSET.
_TWO_INPUT_OFFSET = 20
OP_AND2 = 20
OP_NAND2 = 21
OP_OR2 = 22
OP_NOR2 = 23
OP_XOR2 = 24
OP_XNOR2 = 25

_OPCODES = {
    "AND": OP_AND,
    "NAND": OP_NAND,
    "OR": OP_OR,
    "NOR": OP_NOR,
    "XOR": OP_XOR,
    "XNOR": OP_XNOR,
    "NOT": OP_NOT,
    "BUF": OP_BUF,
    "AOI21": OP_AOI21,
    "AOI22": OP_AOI22,
    "OAI21": OP_OAI21,
    "OAI22": OP_OAI22,
    "MUX2": OP_MUX2,
}


def content_hash(netlist: Netlist) -> str:
    """Stable content hash of a netlist's structure.

    Covers the design name, port declaration order and every gate
    record (name, function, fanin order, cell binding).  Two netlists
    with the same hash simulate identically; any structural mutation --
    adding a gate, rewiring a pin, remapping a cell -- changes the hash,
    which is what keys the compile cache.
    """
    h = hashlib.sha256()
    h.update(netlist.name.encode())
    h.update(b"\x00I")
    for net in netlist.inputs:
        h.update(net.encode() + b"\x00")
    h.update(b"\x00O")
    for net in netlist.outputs:
        h.update(net.encode() + b"\x00")
    h.update(b"\x00G")
    for name in sorted(netlist.gate_names()):
        gate = netlist.gate(name)
        record = "|".join(
            (gate.name, gate.func, ",".join(gate.fanin), gate.cell or "")
        )
        h.update(record.encode() + b"\x00")
    return h.hexdigest()


class CompiledNetlist:
    """Flat-array lowering of one netlist's combinational core.

    Instances are immutable snapshots: they reflect the netlist at
    compile time and are safe to share between simulators (the compile
    cache hands the same object to every consumer).
    """

    def __init__(self, netlist: Netlist, _key: Optional[str] = None):
        # ``_key``: the netlist's content hash, when the caller (the
        # compile cache) has computed it already.
        self.name = netlist.name
        self.key = content_hash(netlist) if _key is None else _key

        dffs = netlist.dffs()
        self.dff_names: Tuple[str, ...] = tuple(g.name for g in dffs)
        self.dff_data: Tuple[str, ...] = tuple(g.fanin[0] for g in dffs)
        self.inputs: Tuple[str, ...] = tuple(netlist.inputs)

        #: Combinational gates in dependency order.
        self.order: Tuple[str, ...] = tuple(topological_order(netlist))
        prefix = list(self.inputs) + list(self.dff_names)
        self.n_inputs = len(self.inputs)
        self.n_prefix = len(prefix)
        self.names: Tuple[str, ...] = tuple(prefix) + self.order
        self.index: Dict[str, int] = {
            name: i for i, name in enumerate(self.names)
        }
        if len(self.index) != len(self.names):
            raise NetlistError(
                f"{self.name}: duplicate net names in compile prefix"
            )

        ops: List[int] = []
        fanins: List[Tuple[int, ...]] = []
        index = self.index
        for name in self.order:
            gate = netlist.gate(name)
            op = _OPCODES[gate.func]
            try:
                fanin = tuple(index[f] for f in gate.fanin)
            except KeyError as exc:
                raise NetlistError(
                    f"{self.name}: gate {name!r} fanin net {exc.args[0]!r} "
                    f"has no driver"
                ) from exc
            if len(fanin) == 2 and op <= OP_XNOR:
                op += _TWO_INPUT_OFFSET
            ops.append(op)
            fanins.append(fanin)
        self.ops: Tuple[int, ...] = tuple(ops)
        self.fanins: Tuple[Tuple[int, ...], ...] = tuple(fanins)

        self.observe_idx: Tuple[int, ...] = tuple(
            self.index[net] for net in
            tuple(netlist.outputs) + tuple(g.fanin[0] for g in dffs)
        )
        self.dff_data_idx: Tuple[int, ...] = tuple(
            self.index[net] for net in self.dff_data
        )
        # A net that is both a primary output and a flip-flop data input
        # appears twice in observe_idx; its rank is the first occurrence.
        rank = [len(self.observe_idx)] * len(self.names)
        for r in range(len(self.observe_idx) - 1, -1, -1):
            rank[self.observe_idx[r]] = r
        self.observe_rank: Tuple[int, ...] = tuple(rank)

        # Fanout adjacency: value slot -> eval positions reading it.
        fanout_pos: List[List[int]] = [[] for _ in range(len(self.names))]
        for pos, fanin in enumerate(self.fanins):
            for f in set(fanin):
                fanout_pos[f].append(pos)
        self._fanout_pos: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(p) for p in fanout_pos
        )
        # Per eval position, the best (lowest) observation rank its
        # output or anything downstream of it has: an early-exit fault
        # walk skips a gate that cannot reach an observation point it
        # still needs.
        base = self.n_prefix
        reach = [0] * len(self.ops)
        for p in range(len(self.ops) - 1, -1, -1):
            best = rank[base + p]
            for q in fanout_pos[base + p]:
                if reach[q] < best:
                    best = reach[q]
            reach[p] = best
        self._reach_rank: Tuple[int, ...] = tuple(reach)

    # ------------------------------------------------------------------
    def new_values(self, fill: int = 0) -> List[int]:
        """A fresh value array (one slot per net)."""
        return [fill] * len(self.names)

    def values_from(self, mapping) -> List[int]:
        """Value array seeded from a full net -> word mapping."""
        try:
            return [mapping[name] for name in self.names]
        except KeyError as exc:
            raise NetlistError(
                f"{self.name}: no value for net {exc.args[0]!r}"
            ) from exc

    def to_mapping(self, values: Sequence[int]) -> Dict[str, int]:
        """Net -> word dict view of a value array."""
        return dict(zip(self.names, values))

    # ------------------------------------------------------------------
    def eval_into(self, values: List[int], mask: int) -> List[int]:
        """Evaluate every eval node in place over packed bit-parallel words.

        ``values`` is a full value array whose prefix slots (primary and
        state inputs) are already filled.  Results are bit-identical to
        :func:`repro.netlist.evaluate_gate` over the same gates.
        """
        ops = self.ops
        fanins = self.fanins
        base = self.n_prefix
        for p in range(len(ops)):
            fanin = fanins[p]
            op = ops[p]
            if op == OP_NAND2:
                v = mask & ~(values[fanin[0]] & values[fanin[1]])
            elif op == OP_NOR2:
                v = mask & ~(values[fanin[0]] | values[fanin[1]])
            elif op == OP_AND2:
                v = values[fanin[0]] & values[fanin[1]]
            elif op == OP_OR2:
                v = values[fanin[0]] | values[fanin[1]]
            elif op == OP_NOT:
                v = mask & ~values[fanin[0]]
            elif op == OP_XOR2:
                v = values[fanin[0]] ^ values[fanin[1]]
            elif op == OP_XNOR2:
                v = mask & ~(values[fanin[0]] ^ values[fanin[1]])
            elif op == OP_BUF:
                v = values[fanin[0]]
            elif op == OP_AOI21:
                v = mask & ~((values[fanin[0]] & values[fanin[1]])
                             | values[fanin[2]])
            elif op == OP_AOI22:
                v = mask & ~((values[fanin[0]] & values[fanin[1]])
                             | (values[fanin[2]] & values[fanin[3]]))
            elif op == OP_OAI21:
                v = mask & ~((values[fanin[0]] | values[fanin[1]])
                             & values[fanin[2]])
            elif op == OP_OAI22:
                v = mask & ~((values[fanin[0]] | values[fanin[1]])
                             & (values[fanin[2]] | values[fanin[3]]))
            elif op == OP_MUX2:
                sel = values[fanin[0]]
                v = ((values[fanin[1]] & ~sel)
                     | (values[fanin[2]] & sel)) & mask
            elif op == OP_AND:
                v = mask
                for f in fanin:
                    v &= values[f]
            elif op == OP_NAND:
                v = mask
                for f in fanin:
                    v &= values[f]
                v = mask & ~v
            elif op == OP_OR:
                v = 0
                for f in fanin:
                    v |= values[f]
            elif op == OP_NOR:
                v = 0
                for f in fanin:
                    v |= values[f]
                v = mask & ~v
            elif op == OP_XOR:
                v = 0
                for f in fanin:
                    v ^= values[f]
            else:  # OP_XNOR
                v = 0
                for f in fanin:
                    v ^= values[f]
                v = mask & ~v
            values[base + p] = v
        return values

    # ------------------------------------------------------------------
    def detect_sites(self, sites: Iterable[Tuple[int, int, Optional[int]]],
                     good: Sequence[int], mask: int,
                     early_exit: bool = False) -> List[int]:
        """Detection words of forced-site faults, event-driven.

        ``sites`` holds ``(slot, site_value, limit)`` per fault, as
        :meth:`repro.netlist.wide.WideEngine.detect_batched` takes them:
        the faulty machine forces ``slot`` to ``site_value`` in the lanes
        of ``limit`` (``None`` means every lane of ``mask``) and keeps
        the good machine everywhere else.  ``good`` is the fault-free
        value array (:meth:`eval_into` over the same ``mask``).  Returns
        one word per site, in order: the lanes in which some observation
        point differs from the good machine.  A site whose good value
        already equals ``site_value`` in every ``limit`` lane is not
        excited and gets 0.

        One scratch copy of ``good`` serves every fault.  A fault's
        effect is carried through a min-heap of eval positions (position
        order is topological order): only readers of a slot that differs
        from the good machine are re-evaluated, a re-evaluated gate is
        kept only where it differs, and after the fault exactly those
        changed slots are restored.  A gate reached through two changed
        fanins is pushed twice and evaluated once, after both.  So a
        fault costs the gates its effect reaches, not its fanout cone.

        With ``early_exit`` the word is the difference at the changed
        slot that comes first in ``observe_idx`` order (via
        :attr:`observe_rank`), exactly the first non-zero difference a
        scan of ``observe_idx`` would find: non-zero iff the fault is
        detected, not necessarily every detecting lane -- the contract
        of fault-dropping callers.  Without it the word is the union
        over every observation point.

        In early-exit mode the walk also prunes.  Each gate knows the
        best observation rank at or below it (``_reach_rank``), so the
        walk skips every gate that cannot reach an observation point
        ranked before the best difference found so far (at first, any
        observation point).  Everything a skipped gate feeds is skipped
        too (its rank bound is no better), so no evaluated gate reads a
        stale fanin.  A full-mask walk needs every observation point, so
        there the check would only skip the rare dead-end gate, and it
        is not made.
        """
        ops = self.ops
        fanins = self.fanins
        fanout_pos = self._fanout_pos
        rank = self.observe_rank
        reach = self._reach_rank
        n_observe = len(self.observe_idx)
        base = self.n_prefix
        faulty = list(good)
        results: List[int] = []
        for slot, site_value, limit in sites:
            g = good[slot]
            flip = (g ^ site_value) & (mask if limit is None else limit)
            if not flip:
                results.append(0)
                continue
            faulty[slot] = g ^ flip
            changed = [slot]
            det = 0
            # In early-exit mode a gate reaching no observation point
            # ranked below ``bound`` cannot change the result, and
            # ``bound`` drops to the rank of the first-ranked difference.
            bound = n_observe
            if early_exit and rank[slot] < bound:
                bound = rank[slot]
                det = flip
            # Ascending, hence already a heap.
            heap = list(fanout_pos[slot])
            last = -1
            while heap:
                p = heappop(heap)
                if p == last:
                    continue  # a second changed fanin pushed it again
                last = p
                if early_exit and reach[p] >= bound:
                    continue
                fanin = fanins[p]
                op = ops[p]
                if op == OP_NAND2:
                    v = mask & ~(faulty[fanin[0]] & faulty[fanin[1]])
                elif op == OP_NOR2:
                    v = mask & ~(faulty[fanin[0]] | faulty[fanin[1]])
                elif op == OP_AND2:
                    v = faulty[fanin[0]] & faulty[fanin[1]]
                elif op == OP_OR2:
                    v = faulty[fanin[0]] | faulty[fanin[1]]
                elif op == OP_NOT:
                    v = mask & ~faulty[fanin[0]]
                elif op == OP_XOR2:
                    v = faulty[fanin[0]] ^ faulty[fanin[1]]
                elif op == OP_XNOR2:
                    v = mask & ~(faulty[fanin[0]] ^ faulty[fanin[1]])
                elif op == OP_BUF:
                    v = faulty[fanin[0]]
                elif op == OP_AOI21:
                    v = mask & ~((faulty[fanin[0]] & faulty[fanin[1]])
                                 | faulty[fanin[2]])
                elif op == OP_AOI22:
                    v = mask & ~((faulty[fanin[0]] & faulty[fanin[1]])
                                 | (faulty[fanin[2]] & faulty[fanin[3]]))
                elif op == OP_OAI21:
                    v = mask & ~((faulty[fanin[0]] | faulty[fanin[1]])
                                 & faulty[fanin[2]])
                elif op == OP_OAI22:
                    v = mask & ~((faulty[fanin[0]] | faulty[fanin[1]])
                                 & (faulty[fanin[2]] | faulty[fanin[3]]))
                elif op == OP_MUX2:
                    sel = faulty[fanin[0]]
                    v = ((faulty[fanin[1]] & ~sel)
                         | (faulty[fanin[2]] & sel)) & mask
                elif op == OP_AND:
                    v = mask
                    for f in fanin:
                        v &= faulty[f]
                elif op == OP_NAND:
                    v = mask
                    for f in fanin:
                        v &= faulty[f]
                    v = mask & ~v
                elif op == OP_OR:
                    v = 0
                    for f in fanin:
                        v |= faulty[f]
                elif op == OP_NOR:
                    v = 0
                    for f in fanin:
                        v |= faulty[f]
                    v = mask & ~v
                elif op == OP_XOR:
                    v = 0
                    for f in fanin:
                        v ^= faulty[f]
                else:  # OP_XNOR
                    v = 0
                    for f in fanin:
                        v ^= faulty[f]
                    v = mask & ~v
                out = base + p
                if v != good[out]:
                    faulty[out] = v
                    changed.append(out)
                    if early_exit and rank[out] < bound:
                        bound = rank[out]
                        det = v ^ good[out]
                    for q in fanout_pos[out]:
                        heappush(heap, q)
            if not early_exit:
                for s in changed:
                    if rank[s] < n_observe:
                        det |= good[s] ^ faulty[s]
            for s in changed:
                faulty[s] = good[s]
            results.append(det)
        return results

    # ------------------------------------------------------------------
    def eval3_into(self, values0: List[int], values1: List[int],
                   mask: int) -> None:
        """Three-valued (0/1/X) evaluation over two packed words per net.

        The encoding is two parallel value arrays: bit *i* of
        ``values0[slot]`` set means net ``names[slot]`` is 0 in lane
        *i*; the same bit of ``values1[slot]`` means 1; neither set
        means X.  (``values0 & values1 == 0`` is an invariant the
        kernel preserves.)  Lanes never mix: a lane may be an
        independent pattern, or -- in PODEM -- the fault-free (bit 0)
        or faulty (bit 1) machine under one pattern.  The results are
        bit-identical to :func:`repro.fault.podem.eval3` applied per
        lane -- the retained dict-based reference, pinned by
        ``tests/fault/test_atpg_flow.py`` on every catalog circuit.

        Every eval position is recomputed, in topological order, from
        the prefix slots (primary and state inputs) already filled in;
        :meth:`propagate3` is the incremental form.
        """
        ops = self.ops
        fanins = self.fanins
        base = self.n_prefix
        for p in range(len(ops)):
            fanin = fanins[p]
            op = ops[p]
            if op >= _TWO_INPUT_OFFSET:
                a, b = fanin
                a0 = values0[a]
                a1 = values1[a]
                b0 = values0[b]
                b1 = values1[b]
                if op == OP_NAND2:
                    v1 = a0 | b0
                    v0 = a1 & b1
                elif op == OP_NOR2:
                    v0 = a1 | b1
                    v1 = a0 & b0
                elif op == OP_AND2:
                    v1 = a1 & b1
                    v0 = a0 | b0
                elif op == OP_OR2:
                    v1 = a1 | b1
                    v0 = a0 & b0
                else:
                    known = (a0 | a1) & (b0 | b1)
                    parity = a1 ^ b1
                    if op == OP_XOR2:
                        v1 = parity & known
                        v0 = known & ~parity & mask
                    else:  # OP_XNOR2
                        v0 = parity & known
                        v1 = known & ~parity & mask
            elif op == OP_NOT:
                f = fanin[0]
                v0 = values1[f]
                v1 = values0[f]
            elif op == OP_BUF:
                f = fanin[0]
                v0 = values0[f]
                v1 = values1[f]
            elif op == OP_AND or op == OP_NAND:
                v1 = mask
                v0 = 0
                for f in fanin:
                    v1 &= values1[f]
                    v0 |= values0[f]
                if op == OP_NAND:
                    v0, v1 = v1, v0
            elif op == OP_OR or op == OP_NOR:
                v1 = 0
                v0 = mask
                for f in fanin:
                    v1 |= values1[f]
                    v0 &= values0[f]
                if op == OP_NOR:
                    v0, v1 = v1, v0
            elif op == OP_XOR or op == OP_XNOR:
                known = mask
                parity = 0
                for f in fanin:
                    known &= values0[f] | values1[f]
                    parity ^= values1[f]
                if op == OP_XOR:
                    v1 = parity & known
                    v0 = known & ~parity & mask
                else:
                    v0 = parity & known
                    v1 = known & ~parity & mask
            elif op == OP_AOI21:
                x, y, z = fanin
                t1 = values1[x] & values1[y]
                t0 = values0[x] | values0[y]
                v0 = t1 | values1[z]
                v1 = t0 & values0[z]
            elif op == OP_AOI22:
                x, y, z, w = fanin
                t1 = values1[x] & values1[y]
                t0 = values0[x] | values0[y]
                u1 = values1[z] & values1[w]
                u0 = values0[z] | values0[w]
                v0 = t1 | u1
                v1 = t0 & u0
            elif op == OP_OAI21:
                x, y, z = fanin
                t1 = values1[x] | values1[y]
                t0 = values0[x] & values0[y]
                v0 = t1 & values1[z]
                v1 = t0 | values0[z]
            elif op == OP_OAI22:
                x, y, z, w = fanin
                t1 = values1[x] | values1[y]
                t0 = values0[x] & values0[y]
                u1 = values1[z] | values1[w]
                u0 = values0[z] & values0[w]
                v0 = t1 & u1
                v1 = t0 | u0
            else:  # OP_MUX2
                s, d0, d1 = fanin
                s0 = values0[s]
                s1 = values1[s]
                v1 = ((s0 & values1[d0]) | (s1 & values1[d1])
                      | (values1[d0] & values1[d1]))
                v0 = ((s0 & values0[d0]) | (s1 & values0[d1])
                      | (values0[d0] & values0[d1]))
            slot = base + p
            values0[slot] = v0
            values1[slot] = v1

    # ------------------------------------------------------------------
    def propagate3(self, values0: List[int], values1: List[int], mask: int,
                   seeds: Iterable[int], hold: int = -1, held: int = 0,
                   trail: Optional[List[Tuple[int, int, int]]] = None,
                   ) -> None:
        """Worklist form of :meth:`eval3_into`: re-implicate from seeds.

        ``seeds`` are value-slot indices whose words just changed (the
        assigned input, or a forced fault site).  A min-heap over eval
        positions -- position order is topological order -- visits only
        positions whose support actually changed, each at most once,
        and an unchanged recomputed pair cuts propagation there.  This
        is what makes PODEM's per-decision implication proportional to
        the nets that change, not to the fanout-cone size.

        ``hold``/``held`` is the held-bits rule: at eval position
        ``hold`` the lanes set in ``held`` keep their stored values and
        the other lanes are recomputed from the fanins.  PODEM packs the
        fault-free machine into bit 0 and the faulty machine into bit 1
        and holds bit 1 of the stuck site (``held=2``); ``held=mask``
        freezes the position outright.  ``trail`` collects
        ``(slot, old0, old1)`` undo records for every overwritten slot,
        so a backtracking caller can restore state without
        re-propagating.  Final values are bit-identical to
        :meth:`eval3_into` over the seeds' full fanout cones, with the
        held lanes of ``hold`` kept.
        """
        ops = self.ops
        fanins = self.fanins
        fanout_pos = self._fanout_pos
        base = self.n_prefix
        keep = ~held
        heap: List[int] = []
        pending = set()
        for s in seeds:
            for p in fanout_pos[s]:
                if p not in pending:
                    pending.add(p)
                    heappush(heap, p)
        # Positions pop in increasing order and only later positions are
        # ever pushed, so a popped position stays in ``pending`` safely.
        while heap:
            p = heappop(heap)
            fanin = fanins[p]
            op = ops[p]
            if op >= _TWO_INPUT_OFFSET:
                a, b = fanin
                a0 = values0[a]
                a1 = values1[a]
                b0 = values0[b]
                b1 = values1[b]
                if op == OP_NAND2:
                    v1 = a0 | b0
                    v0 = a1 & b1
                elif op == OP_NOR2:
                    v0 = a1 | b1
                    v1 = a0 & b0
                elif op == OP_AND2:
                    v1 = a1 & b1
                    v0 = a0 | b0
                elif op == OP_OR2:
                    v1 = a1 | b1
                    v0 = a0 & b0
                else:
                    known = (a0 | a1) & (b0 | b1)
                    parity = a1 ^ b1
                    if op == OP_XOR2:
                        v1 = parity & known
                        v0 = known & ~parity & mask
                    else:  # OP_XNOR2
                        v0 = parity & known
                        v1 = known & ~parity & mask
            elif op == OP_NOT:
                f = fanin[0]
                v0 = values1[f]
                v1 = values0[f]
            elif op == OP_BUF:
                f = fanin[0]
                v0 = values0[f]
                v1 = values1[f]
            elif op == OP_AND or op == OP_NAND:
                v1 = mask
                v0 = 0
                for f in fanin:
                    v1 &= values1[f]
                    v0 |= values0[f]
                if op == OP_NAND:
                    v0, v1 = v1, v0
            elif op == OP_OR or op == OP_NOR:
                v1 = 0
                v0 = mask
                for f in fanin:
                    v1 |= values1[f]
                    v0 &= values0[f]
                if op == OP_NOR:
                    v0, v1 = v1, v0
            elif op == OP_XOR or op == OP_XNOR:
                known = mask
                parity = 0
                for f in fanin:
                    known &= values0[f] | values1[f]
                    parity ^= values1[f]
                if op == OP_XOR:
                    v1 = parity & known
                    v0 = known & ~parity & mask
                else:
                    v0 = parity & known
                    v1 = known & ~parity & mask
            elif op == OP_AOI21:
                x, y, z = fanin
                t1 = values1[x] & values1[y]
                t0 = values0[x] | values0[y]
                v0 = t1 | values1[z]
                v1 = t0 & values0[z]
            elif op == OP_AOI22:
                x, y, z, w = fanin
                t1 = values1[x] & values1[y]
                t0 = values0[x] | values0[y]
                u1 = values1[z] & values1[w]
                u0 = values0[z] | values0[w]
                v0 = t1 | u1
                v1 = t0 & u0
            elif op == OP_OAI21:
                x, y, z = fanin
                t1 = values1[x] | values1[y]
                t0 = values0[x] & values0[y]
                v0 = t1 & values1[z]
                v1 = t0 | values0[z]
            elif op == OP_OAI22:
                x, y, z, w = fanin
                t1 = values1[x] | values1[y]
                t0 = values0[x] & values0[y]
                u1 = values1[z] | values1[w]
                u0 = values0[z] & values0[w]
                v0 = t1 & u1
                v1 = t0 | u0
            else:  # OP_MUX2
                s, d0, d1 = fanin
                s0 = values0[s]
                s1 = values1[s]
                v1 = ((s0 & values1[d0]) | (s1 & values1[d1])
                      | (values1[d0] & values1[d1]))
                v0 = ((s0 & values0[d0]) | (s1 & values0[d1])
                      | (values0[d0] & values0[d1]))
            slot = base + p
            old0 = values0[slot]
            old1 = values1[slot]
            if p == hold:
                v0 = (v0 & keep) | (old0 & held)
                v1 = (v1 & keep) | (old1 & held)
            if old0 == v0 and old1 == v1:
                continue
            if trail is not None:
                trail.append((slot, old0, old1))
            values0[slot] = v0
            values1[slot] = v1
            for q in fanout_pos[slot]:
                if q not in pending:
                    pending.add(q)
                    heappush(heap, q)

    def __repr__(self) -> str:
        return (
            f"CompiledNetlist({self.name!r}: {self.n_prefix} inputs, "
            f"{len(self.ops)} eval nodes, hash {self.key[:12]})"
        )


# ----------------------------------------------------------------------
# process-wide compile cache (memory tier) + persistent disk tier
# ----------------------------------------------------------------------
_COMPILE_CACHE: Dict[str, CompiledNetlist] = {}
_CACHE_HITS = 0
_CACHE_MISSES = 0
_DISK_HITS = 0
_DISK_MISSES = 0

#: Bump whenever :class:`CompiledNetlist`'s attribute layout changes:
#: disk entries pickled under an older schema then read as misses
#: instead of resurrecting a wrong-shaped object.  Schema 2 dropped the
#: per-site cone cache and added ``observe_rank`` and ``_reach_rank``.
COMPILED_CACHE_SCHEMA = 2

_DISK_TIER = None  # lazily built; rebuilt if the cache root moves


def _disk_tier():
    """The disk cache for compiled netlists, or ``None`` if disabled.

    Rebuilt whenever ``REPRO_CACHE_DIR``/``REPRO_DISK_CACHE`` change
    between calls (tests repoint the root per-fixture; long-lived
    processes pay one ``getenv`` per compile-cache miss).
    """
    global _DISK_TIER
    from ..cache import DiskCache, default_cache_root, disk_cache_enabled

    if not disk_cache_enabled():
        return None
    root = default_cache_root()
    if _DISK_TIER is None or _DISK_TIER.root != root:
        _DISK_TIER = DiskCache("compiled", COMPILED_CACHE_SCHEMA,
                               root=root)
    return _DISK_TIER


def compile_netlist(netlist: Netlist, use_cache: bool = True) -> CompiledNetlist:
    """Compiled form of ``netlist``, from the content-hash cache if possible.

    The hash is recomputed on every call (O(gates), far cheaper than a
    compile), so a netlist mutated since its last compilation naturally
    misses and recompiles -- the cache can never serve a stale lowering.

    Lookup order: in-process memory tier, then the persistent disk
    tier (:mod:`repro.cache`), then an actual compile whose result is
    published to both tiers.  The disk tier is what lets a fresh
    process -- a repeated experiment run, a CI job, a sharded
    fault-simulation worker -- skip recompilation entirely.
    """
    global _CACHE_HITS, _CACHE_MISSES, _DISK_HITS, _DISK_MISSES
    rec = get_recorder()
    if not use_cache:
        with rec.span("compile.netlist", cat="compile",
                      circuit=netlist.name, cached=False):
            return CompiledNetlist(netlist)
    key = content_hash(netlist)
    cached = _COMPILE_CACHE.get(key)
    if cached is not None:
        _CACHE_HITS += 1
        rec.incr("compile.memory_hits")
        return cached
    _CACHE_MISSES += 1
    rec.incr("compile.memory_misses")
    disk = _disk_tier()
    if disk is not None:
        loaded = disk.get(key)
        if isinstance(loaded, CompiledNetlist) and loaded.key == key:
            _DISK_HITS += 1
            rec.incr("compile.disk_hits")
            _COMPILE_CACHE[key] = loaded
            return loaded
        _DISK_MISSES += 1
        rec.incr("compile.disk_misses")
    with rec.span("compile.netlist", cat="compile",
                  circuit=netlist.name, key=key[:12]):
        compiled = CompiledNetlist(netlist, _key=key)
    _COMPILE_CACHE[key] = compiled
    if disk is not None:
        disk.put(key, compiled)
    return compiled


def clear_compile_cache(disk: bool = False) -> None:
    """Drop every cached compiled netlist.

    With ``disk=True`` the persistent tier is purged as well -- the
    honest cold-start configuration for benchmarks.
    """
    global _CACHE_HITS, _CACHE_MISSES, _DISK_HITS, _DISK_MISSES
    _COMPILE_CACHE.clear()
    _CACHE_HITS = 0
    _CACHE_MISSES = 0
    _DISK_HITS = 0
    _DISK_MISSES = 0
    # The wide engine memoizes level plans per compiled netlist; those
    # are keyed off this cache's content hashes, so drop them together.
    # Looked up via sys.modules because repro.netlist.wide needs numpy.
    wide = sys.modules.get("repro.netlist.wide")
    if wide is not None:
        wide.clear_plan_cache()
    if disk:
        tier = _disk_tier()
        if tier is not None:
            tier.clear()


def compile_cache_info() -> Dict[str, int]:
    """Cache statistics: entries, hits, misses (for tests and the bench).

    ``hits``/``misses`` count the in-process memory tier;
    ``disk_hits``/``disk_misses`` count the persistent tier (only
    consulted on memory misses).  ``disk_entries``/``disk_bytes``
    report what is currently on disk (0 when the tier is disabled).
    """
    info = {
        "entries": len(_COMPILE_CACHE),
        "hits": _CACHE_HITS,
        "misses": _CACHE_MISSES,
        "disk_hits": _DISK_HITS,
        "disk_misses": _DISK_MISSES,
        "disk_entries": 0,
        "disk_bytes": 0,
    }
    tier = _disk_tier()
    if tier is not None:
        disk_info = tier.info()
        info["disk_entries"] = disk_info["entries"]
        info["disk_bytes"] = disk_info["bytes"]
    return info

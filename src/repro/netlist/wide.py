"""Numpy wide-batch evaluation engine over the compiled flat arrays.

The packed-int kernels in :mod:`repro.netlist.compiled` carry one
arbitrary-width Python integer per net, so a whole pattern set rides in
one value.  This module is the multi-word counterpart: values live in a
contiguous ``(n_slots, n_words)`` uint64 array (bit *i* of word *w* is
pattern ``64*w + i``), and evaluation runs as sliced array operations
over the same flat opcode/fanin arrays.

Two structural ideas make the engine fast on large circuits:

* **One shared level plan per netlist.**  Evaluation positions are
  grouped by logic level, and inside a level sorted by ``(op, arity)``
  so each homogeneous run evaluates as a single fancy-indexed numpy
  expression.  A fanout table maps every value slot to the plan
  positions reading it.  There are no per-fault-cone plans to build or
  store.

* **Changed-set pruning.**  Only gates with a fanin that differs from
  the good machine are re-evaluated, and a gate whose re-evaluated
  words equal the good-machine words drops out, so masked fault effects
  die instead of re-evaluating the whole structural cone.  The
  engine's only fault kernel, :meth:`WideEngine.detect_batched`,
  carries a batch of one or more faults through each plan walk: it
  stores only the (net, fault) pairs that differ and wakes gates
  through the fanout table, so it never touches a gate or a fault
  column that nothing reached.  The packed-int kernel
  (:meth:`~repro.netlist.compiled.CompiledNetlist.detect_sites`)
  prunes the same way, one fault at a time; what the wide engine adds
  is many faults and pattern words per numpy call, which is where it
  can pull ahead on wide batches over large circuits.

Results are **bit-identical** to the integer kernels: same excitation
check, same observation-point order, same early-exit contract
(:mod:`repro.fault.fsim` pins this on every catalog circuit).

This module imports numpy at module scope; callers go through
:mod:`repro.fault.backends`, which degrades to the integer kernels when
the import fails.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import SimulationError
from ..obs import get_recorder
from . import compiled as _c
from .compiled import CompiledNetlist

#: Level plans, observe orders and fanout tables memoized per compiled
#: netlist (keyed on the content hash, so engines built by different
#: simulators over the same circuit share one plan instead of
#: rebuilding it per ``simulate_*`` call).  Cleared alongside the
#: compile cache.
_PLAN_CACHE: Dict[str, Tuple[List[tuple], "np.ndarray", tuple]] = {}


def clear_plan_cache() -> None:
    """Drop every memoized level plan / observe order / fanout table."""
    _PLAN_CACHE.clear()

#: Opcode classes sharing one evaluation expression.
_AND_OPS = frozenset({_c.OP_AND, _c.OP_NAND, _c.OP_AND2, _c.OP_NAND2})
_OR_OPS = frozenset({_c.OP_OR, _c.OP_NOR, _c.OP_OR2, _c.OP_NOR2})
_XOR_OPS = frozenset({_c.OP_XOR, _c.OP_XNOR, _c.OP_XOR2, _c.OP_XNOR2})
#: Opcodes whose raw result is complemented (within the pattern mask).
_INVERTING_OPS = frozenset({
    _c.OP_NAND, _c.OP_NAND2, _c.OP_NOR, _c.OP_NOR2, _c.OP_XNOR,
    _c.OP_XNOR2, _c.OP_NOT, _c.OP_AOI21, _c.OP_AOI22, _c.OP_OAI21,
    _c.OP_OAI22,
})

#: Initial row capacity of a batch's sparse fault store (it doubles
#: whenever a level writes past it).
_STORE_ROWS = 1024


def words_per_batch(n_patterns: int) -> int:
    """Number of 64-bit words holding ``n_patterns`` pattern lanes."""
    return (n_patterns + 63) // 64


def row_from_word(word: int, n_words: int) -> "np.ndarray":
    """Packed Python int -> uint64 row (bit *i* of word *w* = lane 64w+i)."""
    return np.frombuffer(
        word.to_bytes(n_words * 8, "little"), dtype="<u8"
    ).astype(np.uint64)


def word_from_row(row: "np.ndarray") -> int:
    """uint64 row -> packed Python int (inverse of :func:`row_from_word`)."""
    return int.from_bytes(row.astype("<u8").tobytes(), "little")


def _eval_stack(op: int, x: "np.ndarray",
                maskw: "np.ndarray") -> "np.ndarray":
    """Evaluate ``n`` gates of opcode ``op`` from their gathered operands.

    ``x`` has shape ``(arity, n, n_words)``: ``x[a, i]`` is gate *i*'s
    pin-*a* value row.  Returns the ``(n, n_words)`` output rows.  ``x``
    must be a throwaway gather (it may be overwritten); operand rows are
    masked, so the outputs are too.
    """
    if op in _AND_OPS:
        v = np.bitwise_and.reduce(x, axis=0)
    elif op in _OR_OPS:
        v = np.bitwise_or.reduce(x, axis=0)
    elif op in _XOR_OPS:
        v = np.bitwise_xor.reduce(x, axis=0)
    elif op == _c.OP_NOT or op == _c.OP_BUF:
        v = x[0]
    elif op == _c.OP_AOI21:
        v = (x[0] & x[1]) | x[2]
    elif op == _c.OP_AOI22:
        v = (x[0] & x[1]) | (x[2] & x[3])
    elif op == _c.OP_OAI21:
        v = (x[0] | x[1]) & x[2]
    elif op == _c.OP_OAI22:
        v = (x[0] | x[1]) & (x[2] | x[3])
    elif op == _c.OP_MUX2:
        v = ((x[1] & ~x[0]) | (x[2] & x[0])) & maskw
    else:
        raise SimulationError(f"wide backend: unknown opcode {op}")
    if op in _INVERTING_OPS:
        # Values are always masked, so mask & ~v == v ^ maskw.
        v ^= maskw
    return v


class _SparseFaults:
    """The faulty machines of one fault batch, kept as differences only.

    ``rows[slot, col]`` is -1 where fault column ``col``'s machine
    equals the good machine at ``slot``; otherwise it names the row of
    ``store`` holding that pair's words.  Only pairs that differ from
    the good machine are written (fault sites included), so memory and
    reset cost follow the batch's live fault effects, not
    ``n_slots x B x n_words``.
    """

    def __init__(self, good: "np.ndarray", b_cap: int):
        self.good = good
        self.rows = np.full((good.shape[0], b_cap), -1, dtype=np.int32)
        self.store = np.empty((_STORE_ROWS, good.shape[1]), dtype=np.uint64)
        self.n = 0
        self._written: List[Tuple["np.ndarray", "np.ndarray"]] = []

    def gather(self, slots: "np.ndarray", cols: "np.ndarray") -> "np.ndarray":
        """Words of the pairs ``(slots[..., i], cols[i])``.

        Returns a fresh ``slots.shape + (n_words,)`` array: the good
        machine's rows, overwritten where the pair differs.
        """
        x = self.good[slots]
        r = self.rows[slots, cols]
        hit = r >= 0
        if hit.any():
            x[hit] = self.store[r[hit]]
        return x

    def write(self, slots: "np.ndarray", cols: "np.ndarray",
              values: "np.ndarray") -> None:
        """Record pairs that differ from the good machine (each once)."""
        end = self.n + len(slots)
        if end > len(self.store):
            cap = 2 * len(self.store)
            while cap < end:
                cap *= 2
            grown = np.empty((cap, self.store.shape[1]), dtype=np.uint64)
            grown[:self.n] = self.store[:self.n]
            self.store = grown
        self.store[self.n:end] = values
        self.rows[slots, cols] = np.arange(self.n, end, dtype=np.int32)
        self.n = end
        self._written.append((slots, cols))

    def reset(self) -> None:
        """Back to "every pair equals the good machine" for the next batch."""
        if self._written:
            slots, cols = zip(*self._written)
            self.rows[np.concatenate(slots), np.concatenate(cols)] = -1
        self._written = []
        self.n = 0


class WideEngine:
    """Wide-batch simulation engine for one :class:`CompiledNetlist`.

    The engine is pattern-width agnostic: the level plan depends only on
    the circuit, while per-call state (value arrays, mask words) is
    sized by ``n_patterns``.  Build one per compiled netlist and reuse
    it across calls -- plan construction is O(gates) and runs once.
    """

    def __init__(self, compiled: CompiledNetlist):
        self.compiled = compiled
        self._plan: Optional[List[tuple]] = None
        self._observe_arr: Optional["np.ndarray"] = None
        self._fanout: Optional[tuple] = None

    # -- plan ----------------------------------------------------------
    def _build_plan(self) -> None:
        cached = _PLAN_CACHE.get(self.compiled.key)
        if cached is not None:
            self._plan, self._observe_arr, self._fanout = cached
            get_recorder().incr("wide.observe_order_hits")
            return
        compiled = self.compiled
        base = compiled.n_prefix
        ops = compiled.ops
        fanins = compiled.fanins
        level = [0] * len(compiled.names)
        by_level: Dict[int, List[int]] = {}
        for p, fanin in enumerate(fanins):
            lvl = 1 + max(level[f] for f in fanin)
            level[base + p] = lvl
            by_level.setdefault(lvl, []).append(p)
        plan = []
        # Plan position: a gate's index in level-major plan order.
        plan_pos = np.empty(len(fanins), dtype=np.intp)
        level_start = [0]
        for lvl in sorted(by_level):
            ps = sorted(by_level[lvl], key=lambda p: (ops[p], len(fanins[p])))
            plan_pos[ps] = np.arange(level_start[-1],
                                     level_start[-1] + len(ps))
            level_start.append(level_start[-1] + len(ps))
            out = np.array([base + p for p in ps], dtype=np.intp)
            pins: List[int] = []
            offsets = [0]
            for p in ps:
                pins.extend(fanins[p])
                offsets.append(len(pins))
            pin_arr = np.array(pins, dtype=np.intp)
            off_arr = np.array(offsets, dtype=np.intp)
            subgroups = []
            bounds = []
            i = 0
            while i < len(ps):
                op = ops[ps[i]]
                ar = len(fanins[ps[i]])
                j = i
                while (j < len(ps) and ops[ps[j]] == op
                       and len(fanins[ps[j]]) == ar):
                    j += 1
                fin = np.array(
                    [[fanins[p][k] for p in ps[i:j]] for k in range(ar)],
                    dtype=np.intp,
                )
                subgroups.append((op, i, fin))
                bounds.append(i)
                i = j
            bounds.append(len(ps))
            plan.append((out, pin_arr, off_arr[:-1], subgroups,
                         np.array(bounds, dtype=np.intp), np.diff(off_arr)))
        # Fanout table (CSR): slot s is read by the gates at plan
        # positions readers[ptr[s]:ptr[s + 1]], each listed once.
        fanout_pos = compiled._fanout_pos
        ptr = np.zeros(len(fanout_pos) + 1, dtype=np.intp)
        np.cumsum(np.fromiter(map(len, fanout_pos), dtype=np.intp,
                              count=len(fanout_pos)), out=ptr[1:])
        readers = plan_pos[np.fromiter(chain.from_iterable(fanout_pos),
                                       dtype=np.intp, count=int(ptr[-1]))]
        self._plan = plan
        self._observe_arr = np.array(compiled.observe_idx, dtype=np.intp)
        self._fanout = (ptr, readers, np.array(level_start, dtype=np.intp))
        _PLAN_CACHE[compiled.key] = (self._plan, self._observe_arr,
                                     self._fanout)

    @property
    def plan(self) -> List[tuple]:
        if self._plan is None:
            self._build_plan()
        return self._plan

    @property
    def observe_arr(self) -> "np.ndarray":
        if self._observe_arr is None:
            self._build_plan()
        return self._observe_arr

    @property
    def fanout(self) -> tuple:
        """``(ptr, readers, level_start)``: the plan's fanout table.

        Slot ``s`` is read by the gates at plan positions
        ``readers[ptr[s]:ptr[s + 1]]``; plan level ``L`` holds positions
        ``level_start[L]`` up to ``level_start[L + 1]``.
        """
        if self._fanout is None:
            self._build_plan()
        return self._fanout

    # -- per-call state ------------------------------------------------
    def mask_words(self, n_patterns: int) -> "np.ndarray":
        """The all-lanes mask row: ``(1 << n_patterns) - 1`` in words."""
        n_words = words_per_batch(n_patterns)
        mask = np.full(n_words, ~np.uint64(0), dtype=np.uint64)
        rem = n_patterns % 64
        if rem:
            mask[-1] = np.uint64((1 << rem) - 1)
        return mask

    def pack_prefix(self, prefix_words: Sequence[int],
                    n_patterns: int) -> "np.ndarray":
        """Value array from per-slot packed input words.

        ``prefix_words[slot]`` is the packed Python int for prefix slot
        ``slot`` (already masked to ``n_patterns`` lanes); internal
        slots start zeroed and are filled by :meth:`eval_good`.
        """
        n_words = words_per_batch(n_patterns)
        n_bytes = n_words * 8
        values = np.zeros((len(self.compiled.names), n_words),
                          dtype=np.uint64)
        n = len(prefix_words)
        packed = b"".join(word.to_bytes(n_bytes, "little")
                          for word in prefix_words)
        values[:n] = np.frombuffer(packed, dtype="<u8").reshape(n, n_words)
        return values

    # -- evaluation ----------------------------------------------------
    def eval_good(self, values: "np.ndarray", maskw: "np.ndarray") -> None:
        """Full-core good-machine evaluation, in place."""
        for out, _pins, _offs, subgroups, _bounds, _counts in self.plan:
            for op, start, fin in subgroups:
                values[out[start:start + fin.shape[1]]] = \
                    _eval_stack(op, values[fin], maskw)

    # -- fault detection ----------------------------------------------
    def detect_batched(
        self,
        sites: Sequence[Tuple[int, "np.ndarray", Optional["np.ndarray"]]],
        good: "np.ndarray",
        maskw: "np.ndarray",
        batch: int,
        early_exit: bool = False,
    ) -> List[int]:
        """Detection words for a list of forced-site faults.

        ``sites`` holds ``(slot, site_row, limit_row)`` per fault: the
        site is forced to ``site_row`` and differences are observed
        under ``limit_row`` (``None`` means the full pattern mask --
        transition faults pass their launch mask here in drop mode,
        mirroring the integer kernels).  Returns one packed detection
        int per site, in order, with the :meth:`detect order
        <repro.fault.fsim.FaultSimulator.detect_stuck_arr>` contract:
        ``early_exit`` stops at the first observation point showing a
        difference.

        The faults run ``batch`` per plan walk (any size from 1 up).
        Fault ``b`` of a batch is column ``b`` of a sparse fault state
        (:class:`_SparseFaults`): only the (net, column) pairs whose
        words differ from the good machine are stored.  The walk is
        event-driven on the fault axis too.  Injecting a site, or
        storing a re-evaluated pair that changed, marks the site's
        readers pending in that column through the plan's fanout
        table; each level pops its pending (gate, column) pairs, sorted
        and deduplicated, and evaluates them per opcode subgroup.  A
        gate reached through two changed fanins is evaluated once, after
        all its fanins, and the walk stops when nothing is pending, so
        a batch costs the union of its live fault effects -- not B
        full dispatches, and no scan of untouched gates.

        A fault's own site is never re-evaluated in its own column (its
        fanins sit strictly upstream of the fault effect), so the
        forced value survives the walk even when another fault in the
        batch drives gates through the site.

        Results are bit-identical to the integer kernels at every batch
        size -- same excitation check, observation order, and
        early-exit contract.
        """
        if not sites:
            return []
        b_cap = min(batch, len(sites))
        state = _SparseFaults(good, b_cap)
        pending = np.zeros((len(self.compiled.fanins), b_cap), dtype=bool)
        results: List[int] = []
        for start in range(0, len(sites), b_cap):
            results.extend(self._detect_one_batch(
                sites[start:start + b_cap], maskw, state, pending,
                early_exit))
        return results

    def _wake(self, slots: "np.ndarray", cols: "np.ndarray",
              pending: "np.ndarray") -> int:
        """Mark every reader of each changed pair pending in its column.

        Returns the highest plan position marked (-1 for none).
        """
        ptr, readers, _ = self.fanout
        first = ptr[slots]
        counts = ptr[slots + 1] - first
        ends = np.cumsum(counts)
        total = int(ends[-1])
        if not total:
            return -1
        pos = readers[np.arange(total)
                      + np.repeat(first - (ends - counts), counts)]
        pending[pos, np.repeat(cols, counts)] = True
        return int(pos.max())

    def _detect_one_batch(self, chunk, maskw, state, pending, early_exit):
        good = state.good
        results = [0] * len(chunk)
        injected = []
        site_slots: List[int] = []
        site_cols: List[int] = []
        site_rows = []
        for b, (slot, site_row, limit_row) in enumerate(chunk):
            limit = maskw if limit_row is None else limit_row
            # Same excitation check as the integer kernels.
            if not ((good[slot] ^ site_row) & limit).any():
                continue
            injected.append((b, limit))
            site_slots.append(slot)
            site_cols.append(b)
            site_rows.append(site_row)
        if not injected:
            return results
        slots = np.array(site_slots, dtype=np.intp)
        cols = np.array(site_cols, dtype=np.intp)
        state.write(slots, cols, np.array(site_rows, dtype=np.uint64))
        last = self._wake(slots, cols, pending)
        level_start = self.fanout[2]
        b_cap = pending.shape[1]
        flat = pending.reshape(-1)
        for lvl, (out, pins, offs, subgroups, bounds, pin_counts) in \
                enumerate(self.plan):
            lo = level_start[lvl]
            if lo > last:
                break
            hi = level_start[lvl + 1]
            keys = np.flatnonzero(flat[lo * b_cap:hi * b_cap])
            if not keys.size:
                continue
            flat[lo * b_cap:hi * b_cap] = False
            gi, bi = np.divmod(keys, b_cap)
            # One gather for the level: pair i's operands are rows
            # first[i]:first[i] + n_pins[i] of x, in pin order.
            n_pins = pin_counts[gi]
            ends = np.cumsum(n_pins)
            first = ends - n_pins
            x = state.gather(
                pins[np.arange(ends[-1]) + np.repeat(offs[gi] - first,
                                                     n_pins)],
                np.repeat(bi, n_pins))
            locs = np.searchsorted(gi, bounds)
            cuts = np.append(first, ends[-1])[locs].tolist()
            locs = locs.tolist()
            parts = []
            for k, (op, _start, fin) in enumerate(subgroups):
                n = locs[k + 1] - locs[k]
                if n:
                    stack = x[cuts[k]:cuts[k + 1]].reshape(
                        n, fin.shape[0], -1).transpose(1, 0, 2)
                    parts.append(_eval_stack(op, stack, maskw))
            v = parts[0] if len(parts) == 1 else np.concatenate(parts)
            o = out[gi]
            diff = (v != good[o]).any(axis=1)
            if diff.any():
                o, bi, v = o[diff], bi[diff], v[diff]
                state.write(o, bi, v)
                last = max(last, self._wake(o, bi, pending))
        observe = self.observe_arr
        obs_rows = state.rows[observe]
        for b, limit in injected:
            col = obs_rows[:, b]
            hit = np.flatnonzero(col >= 0)
            if not hit.size:
                continue
            diffs = (good[observe[hit]] ^ state.store[col[hit]]) & limit
            if early_exit:
                nonzero = diffs.any(axis=1)
                if nonzero.any():
                    results[b] = word_from_row(diffs[np.argmax(nonzero)])
            else:
                results[b] = word_from_row(
                    np.bitwise_or.reduce(diffs, axis=0))
        state.reset()
        return results

"""Event-free levelized logic simulation.

Two simulators share the same compiled structure:

* :meth:`LogicSimulator.eval_combinational` -- bit-parallel (one integer
  bit lane per pattern) evaluation of the combinational core, used by
  fault simulation and ATPG;
* :meth:`LogicSimulator.run_sequential` -- cycle-by-cycle simulation of
  the full sequential circuit under a vector stream, one value frame
  per cycle (the reference :meth:`run_packed` is checked against);
* :meth:`LogicSimulator.run_packed` -- the same run with one integer
  bit lane per *cycle*, used to extract switching activity for the
  power model (the paper's "100 random vectors" NanoSim run).

The heavy lifting is done by :class:`repro.netlist.CompiledNetlist`:
the netlist is lowered once (per content hash, process-wide) into flat
integer-indexed arrays, so the per-cycle inner loop touches only lists
and ints -- no string-keyed dict lookups, no per-gate dispatch on the
function name.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..errors import SimulationError
from ..netlist import Netlist, compile_netlist
from ..obs import get_recorder


class LogicSimulator:
    """Compiled simulator for one netlist."""

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        #: Shared flat-array lowering (cached by netlist content hash).
        self.compiled = compile_netlist(netlist)
        self.order: List[str] = list(self.compiled.order)
        self.dff_names: List[str] = list(self.compiled.dff_names)
        self.dff_data: List[str] = list(self.compiled.dff_data)

    # ------------------------------------------------------------------
    def eval_combinational(self, values: Dict[str, int],
                           mask: int = 1) -> Dict[str, int]:
        """Evaluate the combinational core in place.

        ``values`` must hold packed words for every primary input and
        every state input; the dict is updated with every internal net
        and returned.
        """
        compiled = self.compiled
        arr = [0] * len(compiled.names)
        names = compiled.names
        n_inputs = compiled.n_inputs
        for i in range(compiled.n_prefix):
            net = names[i]
            word = values.get(net)
            if word is None:
                kind = "input" if i < n_inputs else "state input"
                raise SimulationError(f"missing value for {kind} {net!r}")
            arr[i] = word
        compiled.eval_into(arr, mask)
        for i in range(compiled.n_prefix, len(names)):
            values[names[i]] = arr[i]
        return values

    # ------------------------------------------------------------------
    def run_sequential(
        self,
        vectors: Sequence[Mapping[str, int]],
        initial_state: Optional[Mapping[str, int]] = None,
    ) -> List[Dict[str, int]]:
        """Clock the circuit through ``vectors`` (one mapping per cycle).

        Returns the full net-value dict for every cycle (single-bit
        values).  State starts at ``initial_state`` (default all zeros).
        """
        compiled = self.compiled
        state = self._state_bits(initial_state)
        frames: List[Dict[str, int]] = []
        names = compiled.names
        n_inputs = compiled.n_inputs
        n_prefix = compiled.n_prefix
        dff_data_idx = compiled.dff_data_idx
        arr = [0] * len(names)
        for vector in vectors:
            for i in range(n_inputs):
                arr[i] = vector.get(names[i], 0) & 1
            arr[n_inputs:n_prefix] = state
            compiled.eval_into(arr, 1)
            frames.append(dict(zip(names, arr)))
            state = [arr[idx] & 1 for idx in dff_data_idx]
        return frames

    # ------------------------------------------------------------------
    def run_packed(
        self,
        vectors: Sequence[Mapping[str, int]],
        initial_state: Optional[Mapping[str, int]] = None,
    ) -> List[int]:
        """:meth:`run_sequential` with every cycle evaluated at once.

        Returns one word per value slot of :attr:`compiled` (slot order
        is ``compiled.names``): bit *t* of a word is that net's value in
        cycle *t*, equal to ``run_sequential(...)[t][net]``.

        The flip-flop trajectory is found by relaxing over the time
        axis.  Cycle 0 of every state word holds the initial state;
        later cycles start from the guess that the initial state is
        held.  A round evaluates every cycle under the current guess in
        one bit-parallel pass, and the D-pin words shifted up one cycle
        become the next guess.  If the guess agrees with its successor
        on cycles ``0..j-1``, those cycles were evaluated on the true
        state (by induction from the known cycle 0) and the successor
        is also true at cycle ``j``.  So each round settles at least one
        more cycle, an unchanged guess is the exact trajectory, and a
        run makes at most ``n`` calls to
        :meth:`~repro.netlist.CompiledNetlist.eval_into`, as
        :meth:`run_sequential` does.

        Records one ``power.activity`` span (args ``circuit``,
        ``vectors``, ``rounds``) and adds the rounds to the
        ``power.relax_rounds`` counter.
        """
        compiled = self.compiled
        names = compiled.names
        n_inputs = compiled.n_inputs
        n_prefix = compiled.n_prefix
        dff_data_idx = compiled.dff_data_idx
        state = self._state_bits(initial_state)
        rec = get_recorder()
        start = rec.now_us()
        inputs, mask = pack_patterns(vectors, compiled.inputs)
        words = [inputs[net] for net in compiled.inputs]
        words += [0] * (len(names) - n_inputs)
        guess = [mask if bit else 0 for bit in state]
        rounds = 0
        changed = len(vectors) > 0
        while changed:
            words[n_inputs:n_prefix] = guess
            compiled.eval_into(words, mask)
            rounds += 1
            implied = [((words[d] << 1) & mask) | bit
                       for d, bit in zip(dff_data_idx, state)]
            changed = implied != guess
            guess = implied
        rec.incr("power.relax_rounds", rounds)
        rec.complete_event("power.activity", start, rec.now_us() - start,
                           cat="power", circuit=self.netlist.name,
                           vectors=len(vectors), rounds=rounds)
        return words

    def _state_bits(self, initial_state: Optional[Mapping[str, int]],
                    ) -> List[int]:
        """Per-flip-flop start bits (``dff_names`` order, default 0)."""
        state: List[int] = [0] * len(self.dff_names)
        if initial_state:
            position = {name: i for i, name in enumerate(self.dff_names)}
            for name, value in initial_state.items():
                pos = position.get(name)
                if pos is None:
                    raise SimulationError(f"{name!r} is not a flip-flop")
                state[pos] = value & 1
        return state

    # ------------------------------------------------------------------
    def random_vectors(self, n: int, seed: int = 2005,
                       ) -> List[Dict[str, int]]:
        """``n`` uniform random primary-input vectors (deterministic)."""
        rng = random.Random(seed)
        return [
            {net: rng.randint(0, 1) for net in self.netlist.inputs}
            for _ in range(n)
        ]


def pack_patterns(patterns: Sequence[Mapping[str, int]],
                  nets: Iterable[str],
                  strict: bool = False) -> Tuple[Dict[str, int], int]:
    """Pack per-pattern bit values into parallel words.

    Returns ``(values, mask)`` where bit *i* of ``values[net]`` is the
    value of ``net`` in ``patterns[i]``.

    By default a pattern that does not assign a net is zero-filled for
    that net -- convenient for don't-cares, but silently wrong when the
    caller *meant* to supply every bit.  With ``strict=True`` a missing
    net raises :class:`~repro.errors.SimulationError` instead; the fault
    simulator and ATPG run in strict mode.  The strict error reports
    *every* missing net of the first underspecified pattern at once, so
    a hand-written pattern file can be fixed in one pass instead of one
    whack-a-mole net per run.
    """
    nets = list(nets)
    values: Dict[str, int] = {}
    n = len(patterns)
    for net in nets:
        word = 0
        for i, pattern in enumerate(patterns):
            bit = pattern.get(net)
            if bit is None:
                if strict:
                    _raise_strict_packing(patterns, nets)
                bit = 0
            if bit & 1:
                word |= 1 << i
        values[net] = word
    return values, (1 << n) - 1 if n else 0


def _raise_strict_packing(patterns: Sequence[Mapping[str, int]],
                          nets: Sequence[str]) -> None:
    """Raise for the first underspecified pattern, naming every net it
    misses (called only once a missing assignment is already known)."""
    for i, pattern in enumerate(patterns):
        missing = [net for net in nets if pattern.get(net) is None]
        if not missing:
            continue
        if len(missing) == 1:
            raise SimulationError(
                f"pattern {i} assigns no value to net {missing[0]!r} "
                f"(strict packing)"
            )
        listed = ", ".join(repr(net) for net in missing)
        raise SimulationError(
            f"pattern {i} assigns no value to nets {listed} "
            f"(strict packing)"
        )
    raise SimulationError(
        "strict packing failed but no missing net was found "
        "(inconsistent pattern mappings)"
    )


def unpack_word(word: int, n: int) -> List[int]:
    """Split a packed word back into ``n`` single-bit values."""
    return [(word >> i) & 1 for i in range(n)]

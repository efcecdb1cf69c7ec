"""Bit-parallel fault simulation.

Patterns are packed one-per-bit-lane into Python integers (arbitrary
width, so a whole test set can run in one pass).  The good machine is
simulated once; each fault then forces its site to the stuck value and
follows only the nets whose words change
(:meth:`~repro.netlist.CompiledNetlist.detect_sites`): a gate is
re-evaluated only when one of its fanins differs from the good machine
and kept only where its own word differs, so a fault effect that dies
after one gate costs one gate, not the fault's fanout cone.

The inner loops run on the :class:`~repro.netlist.CompiledNetlist`
flat arrays (integer opcodes, integer fanin indices, the fanout table),
shared via the content-hash cache with every other simulator over the
same circuit.
Under the numpy backend (:mod:`repro.fault.backends`) the bulk entry
points hand the whole fault list to the one wide kernel,
:meth:`~repro.netlist.wide.WideEngine.detect_batched`, which walks the
level plan once per batch of faults (batch size from
:func:`~repro.fault.backends.select_batch_faults`) and returns masks
bit-identical to the integer kernels.

Observation points are the combinational core outputs: primary outputs
plus flip-flop data inputs (captured into the scan chain and shifted
out, as in any full-scan flow).

Patterns reaching the fault simulator must assign **every** primary
input and state input: packing runs in strict mode, so a missing net
raises :class:`~repro.errors.SimulationError` instead of being silently
zero-filled (which would quietly fault-simulate a different vector than
the caller intended).

**Fault dropping**: ``simulate_stuck`` / ``simulate_transition`` accept
``drop_detected=True``, the mode the two-phase ATPG pipeline
(:mod:`repro.fault.atpg_flow`) runs in.  A dropped fault's mask is
*early-exit*: it is the difference at the first observation point (in
``core_outputs`` order) showing one, so the mask is guaranteed non-zero
exactly when the fault is detected but need not enumerate every
detecting pattern.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple, Union

from ..errors import SimulationError
from ..netlist import Netlist
from ..obs import get_recorder
from ..power.logicsim import LogicSimulator, pack_patterns
from .backends import (
    BACKEND_AUTO,
    BACKEND_INT,
    BACKEND_NUMPY,
    get_wide_engine,
    select_backend,
    select_batch_faults,
)
from .models import StuckFault, TransitionFault

#: A good-machine state: either the net -> packed-word mapping of
#: :meth:`FaultSimulator.good_values` or the flat value array of
#: :meth:`FaultSimulator.good_array` (cheaper for per-fault callers).
GoodValues = Union[Mapping[str, int], Sequence[int]]


@dataclass(frozen=True)
class FaultSimResult:
    """Outcome of a fault-simulation run."""

    detected: Dict[object, int]   # fault -> bitmask of detecting patterns
    n_patterns: int

    @property
    def detected_faults(self) -> List[object]:
        """Faults detected by at least one pattern."""
        return [f for f, mask in self.detected.items() if mask]

    @property
    def coverage(self) -> float:
        """Fraction of simulated faults detected.

        Defined for every input: an empty fault list has coverage 0.0
        (nothing was simulated, so nothing was demonstrated detected)
        rather than raising ``ZeroDivisionError``.
        """
        if not self.detected:
            return 0.0
        return len(self.detected_faults) / len(self.detected)


class FaultSimulator:
    """Compiled fault simulator for one netlist's combinational core.

    ``backend`` selects the evaluation engine for the bulk entry points
    (:meth:`simulate_stuck`, :meth:`simulate_stuck_packed`,
    :meth:`simulate_transition`): ``"int"`` runs the packed-int
    kernels, ``"numpy"`` the wide-batch engine of
    :mod:`repro.netlist.wide`, and ``"auto"`` (the default) picks
    numpy for multi-word batches on large circuits when it is
    importable (see :mod:`repro.fault.backends`).  Both backends are
    bit-identical; the low-level methods (:meth:`detect_stuck_arr`,
    :meth:`detect_stuck_many`) always run the integer kernel.  The wide
    engine walks the fault list in batches sized by
    :func:`~repro.fault.backends.select_batch_faults`.
    """

    def __init__(self, netlist: Netlist, backend: str = BACKEND_AUTO):
        self.netlist = netlist
        self.sim = LogicSimulator(netlist)
        self.compiled = self.sim.compiled
        self.observe: Tuple[str, ...] = tuple(netlist.core_outputs)
        self.backend = backend
        self._wide_engine = None

    def _wide(self):
        """The shared wide-batch engine (built lazily, cached)."""
        if self._wide_engine is None:
            self._wide_engine = get_wide_engine(self.compiled)
        return self._wide_engine

    def _effective_backend(self, n_patterns: int) -> str:
        """Backend actually used for a batch of ``n_patterns``.

        Empty batches always run the integer kernels: there is nothing
        to vectorize and the int path handles a zero mask natively.
        """
        if n_patterns <= 0:
            return BACKEND_INT
        compiled = self.compiled
        n_gates = len(compiled.names) - compiled.n_prefix
        return select_backend(self.backend, n_patterns, n_gates)

    def _batch_for(self, n_patterns: int) -> int:
        """Faults per wide-engine plan walk for one call."""
        return select_batch_faults(n_patterns, len(self.compiled.names))

    # ------------------------------------------------------------------
    def good_values(self, patterns: Sequence[Mapping[str, int]],
                    strict: bool = True) -> Tuple[Dict[str, int], int]:
        """Pack and simulate the fault-free machine.

        With ``strict`` (the default) every pattern must assign every
        primary input and state input; pass ``strict=False`` to restore
        the historical zero-fill of missing nets.
        """
        values, mask = pack_patterns(
            patterns,
            list(self.netlist.inputs) + list(self.netlist.state_inputs),
            strict=strict,
        )
        self.sim.eval_combinational(values, mask)
        return values, mask

    def good_array(self, patterns: Sequence[Mapping[str, int]],
                   ) -> Tuple[List[int], int]:
        """Strictly pack patterns and simulate, on the flat value array.

        The returned array can be fed straight to :meth:`detect_stuck`
        (or :meth:`detect_stuck_arr`): per-fault callers -- the ATPG
        pipeline's phase-2 dropping loop foremost -- pay the O(nets)
        packing cost once per pattern set instead of once per fault.
        """
        compiled = self.compiled
        arr = [0] * len(compiled.names)
        arr[:compiled.n_prefix] = self._prefix_from_patterns(patterns)
        mask = (1 << len(patterns)) - 1 if patterns else 0
        compiled.eval_into(arr, mask)
        return arr, mask

    def _prefix_from_patterns(self, patterns: Sequence[Mapping[str, int]],
                              ) -> List[int]:
        """Strictly packed input words, one per prefix slot.

        Shared by both backends so strict-packing failures raise the
        same error regardless of the engine in use.
        """
        compiled = self.compiled
        names = compiled.names
        prefix = [0] * compiled.n_prefix
        for slot in range(compiled.n_prefix):
            net = names[slot]
            word = 0
            for i, pattern in enumerate(patterns):
                bit = pattern.get(net)
                if bit is None:
                    raise SimulationError(
                        f"pattern {i} assigns no value to net {net!r} "
                        f"(strict packing)"
                    )
                if bit & 1:
                    word |= 1 << i
            prefix[slot] = word
        return prefix

    def _prefix_from_words(self, words: Mapping[str, int],
                           mask: int) -> List[int]:
        """Strictly gathered pre-packed input words per prefix slot."""
        compiled = self.compiled
        names = compiled.names
        prefix = [0] * compiled.n_prefix
        for slot in range(compiled.n_prefix):
            net = names[slot]
            word = words.get(net)
            if word is None:
                raise SimulationError(
                    f"packed words assign no value to net {net!r} "
                    f"(strict packing)"
                )
            prefix[slot] = word & mask
        return prefix

    def good_array_from_words(self, words: Mapping[str, int],
                              n_patterns: int) -> Tuple[List[int], int]:
        """Good-machine flat array from pre-packed per-net input words.

        ``words`` maps every primary input and state input to a packed
        word (bit *i* = pattern *i*); the random-pattern phase builds
        these straight from the RNG without materializing per-pattern
        dicts.  Missing nets raise (strict packing).
        """
        compiled = self.compiled
        arr = [0] * len(compiled.names)
        mask = (1 << n_patterns) - 1 if n_patterns else 0
        arr[:compiled.n_prefix] = self._prefix_from_words(words, mask)
        compiled.eval_into(arr, mask)
        return arr, mask

    # ------------------------------------------------------------------
    def _stuck_site(self, fault: StuckFault, mask: int,
                    ) -> Tuple[int, int, None]:
        """``(slot, site_value, limit)`` of a stuck-at fault for
        :meth:`~repro.netlist.CompiledNetlist.detect_sites`."""
        slot = self.compiled.index.get(fault.net)
        if slot is None:
            raise SimulationError(f"fault site {fault.net!r} not in netlist")
        return slot, mask if fault.value else 0, None

    def detect_stuck_arr(self, fault: StuckFault, good: Sequence[int],
                         mask: int, early_exit: bool = False) -> int:
        """Detection bitmask of ``fault`` over a flat good-value array.

        With ``early_exit`` the result is the difference at the first
        observation point showing one: non-zero iff the fault is
        detected, but not necessarily the full per-pattern mask -- the
        contract of fault-dropping callers.
        """
        return self.compiled.detect_sites(
            [self._stuck_site(fault, mask)], good, mask, early_exit)[0]

    def detect_stuck_many(self, faults: Sequence[StuckFault],
                          good: Sequence[int], mask: int,
                          early_exit: bool = False,
                          ) -> Dict[object, int]:
        """Detection masks for a whole fault list over one good array.

        One event-driven kernel call: every fault shares one scratch
        copy of the good array and restores only the slots its effect
        changed.  Same ``early_exit`` contract as
        :meth:`detect_stuck_arr`.
        """
        sites = [self._stuck_site(fault, mask) for fault in faults]
        return dict(zip(faults, self.compiled.detect_sites(
            sites, good, mask, early_exit)))

    def detect_stuck(self, fault: StuckFault,
                     good: GoodValues, mask: int) -> int:
        """Bitmask of patterns detecting ``fault`` given good values.

        ``good`` is either the net -> packed-word mapping produced by
        :meth:`good_values` (every net of the netlist must be present)
        or the flat value array of :meth:`good_array`, which skips the
        O(nets) per-call flattening entirely.
        """
        if not isinstance(good, Mapping):
            return self.detect_stuck_arr(fault, good, mask)
        compiled = self.compiled
        try:
            arr = [good[name] for name in compiled.names]
        except KeyError as exc:
            raise SimulationError(
                f"good-value mapping has no entry for net {exc.args[0]!r}"
            ) from exc
        return self.detect_stuck_arr(fault, arr, mask)

    # -- wide-batch (numpy) paths --------------------------------------
    def _wide_good(self, prefix: List[int], n_patterns: int):
        """Pack + evaluate the good machine on the wide engine."""
        engine = self._wide()
        maskw = engine.mask_words(n_patterns)
        values = engine.pack_prefix(prefix, n_patterns)
        engine.eval_good(values, maskw)
        return engine, values, maskw

    def _wide_detect_stuck(self, faults: Sequence[StuckFault],
                           prefix: List[int], n_patterns: int,
                           drop_detected: bool) -> Dict[object, int]:
        engine, good, maskw = self._wide_good(prefix, n_patterns)
        zero = maskw ^ maskw
        index = self.compiled.index
        sites = []
        for fault in faults:
            slot = index.get(fault.net)
            if slot is None:
                raise SimulationError(
                    f"fault site {fault.net!r} not in netlist"
                )
            sites.append((slot, maskw if fault.value else zero, None))
        masks = engine.detect_batched(sites, good, maskw,
                                      self._batch_for(n_patterns),
                                      early_exit=drop_detected)
        return dict(zip(faults, masks))

    def _wide_transition_masks(self, faults, prefix1, prefix2, n_pairs,
                               drop_detected) -> FaultSimResult:
        from ..netlist.wide import word_from_row
        engine, good1, maskw = self._wide_good(prefix1, n_pairs)
        _, good2, _ = self._wide_good(prefix2, n_pairs)
        zero = maskw ^ maskw
        index = self.compiled.index
        detected: Dict[object, int] = {}
        pending = []   # (fault, launch_int, site tuple)
        for fault in faults:
            slot = index.get(fault.net)
            if slot is None:
                raise SimulationError(
                    f"fault site {fault.net!r} not in netlist"
                )
            site1 = good1[slot]
            # Launch bit set where V1's value equals the required initial.
            launch = site1 if fault.initial_value == 1 else site1 ^ maskw
            if not launch.any():
                detected[fault] = 0
                continue
            stuck = fault.equivalent_stuck
            site_row = maskw if stuck.value else zero
            limit = launch if drop_detected else None
            detected[fault] = None
            pending.append((fault, word_from_row(launch),
                            (slot, site_row, limit)))
        masks = engine.detect_batched([p[2] for p in pending], good2,
                                      maskw, self._batch_for(n_pairs),
                                      early_exit=drop_detected)
        for (fault, launch_int, _), stuck_mask in zip(pending, masks):
            detected[fault] = launch_int & stuck_mask
        return FaultSimResult(detected=detected, n_patterns=n_pairs)

    # -- bulk entry points ---------------------------------------------
    def simulate_stuck(self, faults: Sequence[StuckFault],
                       patterns: Sequence[Mapping[str, int]],
                       drop_detected: bool = False) -> FaultSimResult:
        """Fault-simulate a stuck-at fault list against a pattern set.

        ``drop_detected`` switches on the fault-dropping contract:
        per-fault masks are computed with early exit (non-zero iff
        detected, not necessarily complete).
        """
        with get_recorder().span("fsim.stuck", cat="fsim",
                                 circuit=self.netlist.name,
                                 n_faults=len(faults),
                                 n_patterns=len(patterns),
                                 drop=drop_detected):
            if self._effective_backend(len(patterns)) == BACKEND_NUMPY:
                detected = self._wide_detect_stuck(
                    faults, self._prefix_from_patterns(patterns),
                    len(patterns), drop_detected)
            else:
                good, mask = self.good_array(patterns)
                detected = self.detect_stuck_many(faults, good, mask,
                                                  early_exit=drop_detected)
        return FaultSimResult(detected=detected, n_patterns=len(patterns))

    def simulate_stuck_packed(self, faults: Sequence[StuckFault],
                              words: Mapping[str, int], n_patterns: int,
                              drop_detected: bool = False) -> FaultSimResult:
        """Like :meth:`simulate_stuck`, from pre-packed input words."""
        with get_recorder().span("fsim.stuck_packed", cat="fsim",
                                 circuit=self.netlist.name,
                                 n_faults=len(faults),
                                 n_patterns=n_patterns,
                                 drop=drop_detected):
            if self._effective_backend(n_patterns) == BACKEND_NUMPY:
                mask = (1 << n_patterns) - 1 if n_patterns else 0
                detected = self._wide_detect_stuck(
                    faults, self._prefix_from_words(words, mask),
                    n_patterns, drop_detected)
            else:
                good, mask = self.good_array_from_words(words, n_patterns)
                detected = self.detect_stuck_many(faults, good, mask,
                                                  early_exit=drop_detected)
        return FaultSimResult(detected=detected, n_patterns=n_patterns)

    # ------------------------------------------------------------------
    def simulate_transition(
        self,
        faults: Sequence[TransitionFault],
        pairs: Sequence[Tuple[Mapping[str, int], Mapping[str, int]]],
        drop_detected: bool = False,
    ) -> FaultSimResult:
        """Fault-simulate transition faults against (V1, V2) pattern pairs.

        A pair detects slow-to-rise(n) iff V1 sets n = 0 and V2 detects
        n stuck-at-0 (dually for slow-to-fall); this is the standard
        transition-fault condition under fully enhanced (arbitrary)
        two-pattern application.

        Every V1 and V2 must assign every primary input and state input;
        a partially assigned pattern raises
        :class:`~repro.errors.SimulationError` (strict packing) rather
        than being silently zero-filled into a different test.

        ``drop_detected`` applies the early-exit mask contract of
        :meth:`simulate_stuck` to the V2 stuck-at detection step.
        """
        rec = get_recorder()
        span = rec.span("fsim.transition", cat="fsim",
                        circuit=self.netlist.name, n_faults=len(faults),
                        n_pairs=len(pairs), drop=drop_detected)
        v1s = [pair[0] for pair in pairs]
        v2s = [pair[1] for pair in pairs]
        with span:
            if self._effective_backend(len(pairs)) == BACKEND_NUMPY:
                return self._wide_transition_masks(
                    faults, self._prefix_from_patterns(v1s),
                    self._prefix_from_patterns(v2s), len(pairs),
                    drop_detected)
            good1, mask = self.good_array(v1s)
            good2, _ = self.good_array(v2s)
            return self._transition_masks(faults, good1, good2, mask,
                                          len(pairs), drop_detected)

    def _transition_masks(self, faults, good1, good2, mask, n_pairs,
                          drop_detected) -> FaultSimResult:
        index = self.compiled.index
        detected: Dict[object, int] = {}
        pending = []   # faults with a launch, in order
        sites = []
        for fault in faults:
            slot = index.get(fault.net)
            if slot is None:
                raise SimulationError(
                    f"fault site {fault.net!r} not in netlist"
                )
            site1 = good1[slot]
            # Launch bit set where V1's value equals the required initial.
            if fault.initial_value == 1:
                launch = site1 & mask
            else:
                launch = ~site1 & mask
            detected[fault] = 0
            if launch:
                pending.append(fault)
                # Forced only in the launch lanes, so the V2 stuck-at
                # difference is already confined to them.
                sites.append((slot, mask if fault.equivalent_stuck.value
                              else 0, launch))
        masks = self.compiled.detect_sites(sites, good2, mask,
                                           early_exit=drop_detected)
        detected.update(zip(pending, masks))
        return FaultSimResult(detected=detected, n_patterns=n_pairs)


def random_pattern_words(netlist: Netlist, n_patterns: int,
                         seed: int = 7) -> Dict[str, int]:
    """Packed uniform random words, one per core input net.

    Seed contract (since the fault-dropping pipeline): one
    ``random.Random(seed).getrandbits(n_patterns)`` draw per net, in
    core-input order (primary inputs, then state inputs).  This
    replaced the historical per-pattern ``randint`` stream -- patterns
    for a given seed differ from pre-flow releases, but remain fully
    deterministic and identical across circuits sharing input names.
    """
    rng = random.Random(seed)
    nets = list(netlist.inputs) + list(netlist.state_inputs)
    if n_patterns <= 0:
        return {net: 0 for net in nets}
    return {net: rng.getrandbits(n_patterns) for net in nets}


def random_pattern_coverage(netlist: Netlist,
                            faults: Sequence[StuckFault],
                            n_patterns: int = 256,
                            seed: int = 7) -> FaultSimResult:
    """Coverage of ``n_patterns`` uniform random patterns (BIST baseline).

    The patterns are generated as packed words per input net
    (:func:`random_pattern_words`) and fed straight to the packed fault
    simulator -- no per-pattern dicts, no repacking.
    """
    words = random_pattern_words(netlist, n_patterns, seed)
    return FaultSimulator(netlist).simulate_stuck_packed(
        faults, words, n_patterns
    )

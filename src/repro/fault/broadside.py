"""Deterministic broadside transition ATPG via two-time-frame unrolling.

Broadside application fixes V2's state part to the circuit's response to
V1 -- a sequential justification problem.  The classic deterministic
attack unrolls the combinational core into two time frames:

* frame-1 inputs: V1's primary inputs and state;
* frame-2 state inputs are *wired to* frame-1's next-state nets;
* frame-2 primary inputs are free (V2's PI part).

A transition fault slow-to-rise(n) then becomes a single stuck-at-0 at
the frame-2 copy of ``n`` with the side requirement that the frame-1
copy carries 0 -- exactly what the extended PODEM
(:meth:`repro.fault.podem.Podem.generate` with ``require``) solves.

Even with a deterministic engine, many faults stay untestable under
broadside (the justification requirement is real), which is the paper's
Section I point; this module quantifies how much of the gap is search
weakness versus genuine untestability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..errors import AtpgError
from ..netlist import Netlist, content_hash, from_dict, to_dict, validate
from ..obs import get_recorder
from ..power.logicsim import LogicSimulator
from .models import TransitionFault
from .podem import Podem
from .transition import TwoPatternTest

FRAME1 = "f1_"
FRAME2 = "f2_"

#: Unrolled netlists by source content hash.  Unrolling is O(gates) and
#: every BroadsideAtpg (one per TransitionAtpg engine, one per
#: experiment row) used to redo it; the cache hands the same unrolled
#: instance to every consumer, which also lets them share one compiled
#: form downstream.  Treat cached netlists as read-only.
_UNROLL_CACHE: Dict[str, Netlist] = {}

#: Bump when the unrolling scheme (net naming, output selection)
#: changes: persistent entries under the old schema then read as
#: misses instead of resurrecting a differently-shaped unroll.
UNROLL_CACHE_SCHEMA = 1

_DISK_TIER = None


def _disk_tier():
    """Persistent cache of unrolled netlists (``None`` if disabled)."""
    global _DISK_TIER
    from ..cache import DiskCache, default_cache_root, disk_cache_enabled

    if not disk_cache_enabled():
        return None
    root = default_cache_root()
    if _DISK_TIER is None or _DISK_TIER.root != root:
        _DISK_TIER = DiskCache("unroll", UNROLL_CACHE_SCHEMA, root=root)
    return _DISK_TIER


def unroll_two_frames(netlist: Netlist, use_cache: bool = True) -> Netlist:
    """Unrolled two-frame combinational core.

    Inputs: ``f1_<pi>``, ``f1_<ff>`` (V1) and ``f2_<pi>`` (V2's PIs).
    Frame-2 logic reads its state from frame-1's next-state nets.
    Outputs: frame-2 primary and state outputs (the capture points).

    Results are cached on the source netlist's content hash, in memory
    and -- as their JSON-stable dict form -- in the persistent disk
    tier (:mod:`repro.cache`), so repeated runs skip the O(gates)
    unroll.  Pass ``use_cache=False`` for a private mutable copy.
    """
    key = content_hash(netlist) if use_cache else None
    if key is not None:
        cached = _UNROLL_CACHE.get(key)
        if cached is not None:
            return cached
        disk = _disk_tier()
        if disk is not None:
            payload = disk.get(key)
            if payload is not None:
                try:
                    un = from_dict(payload)
                except Exception as exc:
                    # Structurally valid cache entry, undecodable
                    # payload (written by a foreign/older netlist
                    # layout).  Reclaim the slot -- otherwise every
                    # call re-reads and re-discards the same bytes --
                    # and make the discard visible, mirroring the
                    # DiskCache corrupt-entry contract; the unroll
                    # below rewrites the entry in the current layout.
                    disk.remove(key)
                    get_recorder().warning(
                        "cache.foreign_payload",
                        counter="cache.foreign_payloads",
                        namespace=disk.namespace, key=key,
                        exc_type=type(exc).__name__, detail=str(exc),
                    )
                else:
                    _UNROLL_CACHE[key] = un
                    return un
    un = Netlist(f"{netlist.name}_x2")
    state_inputs = set(netlist.state_inputs)
    next_state: Dict[str, str] = {
        ff.name: ff.fanin[0] for ff in netlist.dffs()
    }

    for pi in netlist.inputs:
        un.add_input(FRAME1 + pi)
        un.add_input(FRAME2 + pi)
    for ff in netlist.state_inputs:
        un.add_input(FRAME1 + ff)

    def frame1_net(net: str) -> str:
        return FRAME1 + net

    def frame2_net(net: str) -> str:
        if net in state_inputs:
            # Frame-2 state = frame-1 next state.
            return FRAME1 + next_state[net]
        return FRAME2 + net

    for gate in netlist.gates():
        if not gate.is_combinational:
            continue
        un.add(
            FRAME1 + gate.name, gate.func,
            tuple(frame1_net(f) for f in gate.fanin),
            cell=gate.cell,
        )
        un.add(
            FRAME2 + gate.name, gate.func,
            tuple(frame2_net(f) for f in gate.fanin),
            cell=gate.cell,
        )

    declared = set()
    for capture in tuple(netlist.outputs) + tuple(netlist.state_outputs):
        out_net = frame2_net(capture)  # POs may be PIs or state inputs
        if out_net not in declared:
            un.add_output(out_net)
            declared.add(out_net)
    # Frame-1 primary outputs keep their drivers from dangling; the
    # fault lives only in frame 2, so they can never falsely detect.
    for po in netlist.outputs:
        out_net = frame1_net(po)
        if out_net not in declared:
            un.add_output(out_net)
            declared.add(out_net)
    validate(un)
    if key is not None:
        _UNROLL_CACHE[key] = un
        disk = _disk_tier()
        if disk is not None:
            disk.put(key, to_dict(un))
    return un


@dataclass
class BroadsideAtpg:
    """Deterministic broadside test generator for one netlist."""

    netlist: Netlist
    backtrack_limit: int = 100

    def __post_init__(self) -> None:
        self.unrolled = unroll_two_frames(self.netlist)
        self.podem = Podem(self.unrolled, self.backtrack_limit)
        self.logic = LogicSimulator(self.netlist)

    def generate(self, fault: TransitionFault,
                 ) -> Tuple[str, Optional[TwoPatternTest]]:
        """(status, test) for one transition fault under broadside.

        Status is ``"detected"``, ``"untestable"`` (proven under the
        two-frame model) or ``"aborted"``.
        """
        site = fault.net
        if site in set(self.netlist.state_inputs):
            # A flip-flop output has no distinct frame-2 copy (frame-2
            # state is wired to frame-1 next-state nets); leave these to
            # the simulation-based search.
            return "aborted", None
        if FRAME2 + site not in self.unrolled:
            raise AtpgError(f"fault site {site!r} not in the netlist")
        initial = fault.initial_value
        stuck = fault.equivalent_stuck
        result = self.podem.generate(
            stuck.__class__(FRAME2 + site, stuck.value),
            require=((FRAME1 + site, initial),),
        )
        if not result.detected:
            return result.status, None

        v1 = {}
        v2 = {}
        for pi in self.netlist.inputs:
            v1[pi] = result.test[FRAME1 + pi]
            v2[pi] = result.test[FRAME2 + pi]
        for ff in self.netlist.state_inputs:
            v1[ff] = result.test[FRAME1 + ff]
        # V2's state part is the functional response to V1.
        values = dict(v1)
        self.logic.eval_combinational(values, 1)
        for ff, data in zip(self.logic.dff_names, self.logic.dff_data):
            v2[ff] = values[data] & 1
        return "detected", TwoPatternTest(v1, v2)

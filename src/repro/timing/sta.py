"""Topological static timing analysis.

Computes arrival times over the combinational core (launch = flip-flop
clock-to-Q or primary input, capture = flip-flop setup or primary
output), the critical-path delay and slack per net.  This is the engine
behind Table II (delay overhead of the three DFT schemes) and the delay
constraint of the Section V fanout optimization.

Every entry point reads one :class:`TimingState`: a forward pass that
stores each combinational gate's delay and each net's arrival, from
which the critical delay, the critical path and -- by one backward pass
over the stored delays -- required times and slacks are derived.
:meth:`TimingState.retimed` times an edited copy of the netlist by
recomputing only what the edit can move; its results are exactly equal
to a from-scratch pass over the copy.

Without an overlay, the forward pass runs once per netlist revision and
library: its records are kept in the netlist's
:meth:`~repro.netlist.Netlist.memo`, and every later
:func:`timing_state` call wraps them in a fresh :class:`TimingState`
(counted by the ``sta.timing_shared`` counter).
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional, Tuple

from ..cells import Library, default_library
from ..errors import NetlistError, TimingError
from ..netlist import Gate, Netlist, compile_netlist
from ..obs import get_recorder
from .delay_model import (
    CLK_TO_Q,
    SETUP_TIME,
    DelayOverlay,
    _rc_delay,
    _shared_loads,
    cell_of,
    gate_delay,
    net_loads,
)


@dataclass(frozen=True)
class TimingReport:
    """Result of one STA run.

    Attributes
    ----------
    arrival:
        Arrival time at every net (seconds).
    critical_delay:
        Register-to-register (or port-to-port) worst path delay,
        including clock-to-Q and setup.
    critical_path:
        Net names from launch point to capture point.
    critical_levels:
        Number of logic levels on the critical path.
    """

    circuit: str
    arrival: Dict[str, float]
    critical_delay: float
    critical_path: Tuple[str, ...]
    critical_levels: int

    def slack(self, clock_period: float) -> float:
        """Worst slack against ``clock_period``."""
        return clock_period - self.critical_delay


class TimingState:
    """Gate delays and arrival times of one netlist, editable by copy.

    Build one with :func:`timing_state`.  The timed netlist must not be
    mutated afterwards: edit a :meth:`~repro.netlist.Netlist.copy` and
    call :meth:`retimed`, which leaves this state untouched, so a
    rejected edit is undone by dropping the copy and its state.  The
    ``delay`` and ``arrival`` dicts may be shared with other states of
    the same netlist: read them, never write to them.

    Attributes
    ----------
    netlist:
        The timed netlist.
    delay:
        Propagation delay of every combinational gate (seconds).
    arrival:
        Arrival time at every net (seconds).
    critical_delay:
        Worst endpoint arrival, setup included at flip-flop data pins.
    worst_net:
        The endpoint that sets ``critical_delay``.
    """

    def __init__(self, netlist: Netlist, library: Library,
                 overlay: Optional[DelayOverlay], gates: Dict[str, Gate],
                 delay: Dict[str, float], arrival: Dict[str, float],
                 rank: Dict[str, int],
                 order: Optional[Tuple[str, ...]] = None):
        self.netlist = netlist
        self.library = library
        self.overlay = overlay
        self.delay = delay
        self.arrival = arrival
        # Gate records as timed: retimed() reads an edited gate's old
        # fanins here and builds the next state's records from these.
        self._gates = gates
        # Topological rank of every combinational gate: a gate ranks
        # above each of its combinational fanins.
        self._rank = rank
        self._order = order
        # Names the timed contents: a direct copy of them reports its
        # edits against it (Netlist.edits_since).
        self._revision = netlist.revision()
        self.worst_net, self.critical_delay = _worst_endpoint(
            netlist, arrival
        )

    @property
    def order(self) -> Tuple[str, ...]:
        """Combinational gates in a topological order."""
        if self._order is None:
            rank = self._rank
            self._order = tuple(sorted(rank, key=lambda n: (rank[n], n)))
        return self._order

    # ------------------------------------------------------------------
    def retimed(self, trial: Netlist) -> "TimingState":
        """The timing of ``trial``, an edited copy of this netlist.

        The edited gates are the ones ``trial`` records as added,
        removed or replaced, as a direct copy of this state's netlist
        (:meth:`Netlist.edits_since`).  Their delays are recomputed, and
        so are the delays of the drivers of their old and new fanins,
        whose loads moved.  Arrivals are re-propagated from there in
        topological order over the forward cone, stopping where an
        arrival comes out unchanged; the endpoints are re-read from
        ``trial``.  Any other trial -- a copy of a copy, one built by
        hand, or a copy of this netlist after a later edit -- carries no
        such record and is timed from scratch.  Either way every delay,
        arrival and the critical delay equal those of
        ``timing_state(trial, ...)`` exactly.
        """
        edits = trial.edits_since(self._revision)
        if edits is None:
            return timing_state(trial, self.library, self.overlay)
        _require_capture_points(trial)
        # The timed records with the edits applied: the copy costs what
        # a dict copy does, the rest what the edit touched.
        old = self._gates
        gates = dict(old)
        changed: List[Gate] = []
        removed: List[Gate] = []
        for name in sorted(edits):
            if trial.has_net(name):
                gate = gates[name] = trial.gate(name)
                changed.append(gate)
            elif name in gates:
                removed.append(gates.pop(name))

        delay = dict(self.delay)
        arrival = dict(self.arrival)
        rank = dict(self._rank)
        loaded = set()
        for gate in removed:
            delay.pop(gate.name, None)
            arrival.pop(gate.name, None)
            rank.pop(gate.name, None)
            loaded.update(gate.fanin)
        dirty = set()
        for gate in changed:
            loaded.update(gate.fanin)
            before = old.get(gate.name)
            if before is not None:
                loaded.update(before.fanin)
            if gate.is_combinational:
                dirty.add(gate.name)
                continue
            # A launch point: fixed arrival, no delay, no rank.
            delay.pop(gate.name, None)
            rank.pop(gate.name, None)
            launch = CLK_TO_Q if gate.is_dff else 0.0
            if arrival.get(gate.name) != launch:
                arrival[gate.name] = launch
                dirty.update(
                    s for s in trial.fanout(gate.name)
                    if gates[s].is_combinational
                )

        library, overlay = self.library, self.overlay
        for name in dirty | loaded:
            gate = gates.get(name)
            if gate is None or not gate.is_combinational:
                continue
            d = gate_delay(trial, library, name, overlay)
            if d != delay.get(name):
                delay[name] = d
                dirty.add(name)

        # Restore the rank invariant on the edited gates (new gates have
        # none yet); raising a rank may push sinks up behind it.
        stack = [gate.name for gate in changed if gate.is_combinational]
        while stack:
            name = stack.pop()
            need = 1 + max(
                (rank.get(f, -1) for f in gates[name].fanin), default=-1
            )
            if rank.get(name, -1) < need:
                rank[name] = need
                stack.extend(
                    s for s in trial.fanout(name)
                    if s in rank and rank[s] <= need
                )

        # Lowest rank first: every fanin that will move is settled before
        # the gates it feeds.
        heap = [(rank[name], name) for name in dirty]
        heapify(heap)
        while heap:
            _, name = heappop(heap)
            best = 0.0
            try:
                for f in gates[name].fanin:
                    t = arrival[f]
                    if t > best:
                        best = t
            except KeyError as exc:
                raise NetlistError(
                    f"{trial.name}: gate {name!r} fanin net {exc.args[0]!r} "
                    f"has no driver"
                ) from exc
            t = best + delay[name]
            if arrival.get(name) != t:
                arrival[name] = t
                for s in trial.fanout(name):
                    if s in rank and s not in dirty:
                        dirty.add(s)
                        heappush(heap, (rank[s], s))

        return TimingState(trial, library, overlay, gates, delay, arrival,
                           rank)

    # ------------------------------------------------------------------
    def required_times(self, clock_period: float) -> Dict[str, float]:
        """Required arrival time at every net for the given clock period.

        One backward pass over the stored delays; nets with no path to
        an endpoint have no entry.
        """
        netlist = self.netlist
        required: Dict[str, float] = {}
        for net in netlist.outputs:
            required[net] = clock_period
        for net in netlist.state_outputs:
            required[net] = min(
                required.get(net, float("inf")), clock_period - SETUP_TIME
            )
        gates, delay = self._gates, self.delay
        for name in reversed(self.order):
            req = required.get(name, float("inf"))
            d = delay[name]
            for fanin in gates[name].fanin:
                candidate = req - d
                if candidate < required.get(fanin, float("inf")):
                    required[fanin] = candidate
        return required

    def slacks(self, clock_period: float) -> Dict[str, float]:
        """Slack per net: required - arrival (clock_period based)."""
        required = self.required_times(clock_period)
        return {
            net: required.get(net, clock_period) - t
            for net, t in self.arrival.items()
        }

    def report(self) -> TimingReport:
        """This state as a :class:`TimingReport` (with critical path)."""
        path = _backtrack(self._gates, self.arrival, self.worst_net)
        levels = sum(1 for net in path if self._gates[net].is_combinational)
        return TimingReport(
            circuit=self.netlist.name,
            arrival=dict(self.arrival),
            critical_delay=self.critical_delay,
            critical_path=tuple(path),
            critical_levels=levels,
        )


def timing_state(netlist: Netlist, library: Optional[Library] = None,
                 overlay: Optional[DelayOverlay] = None) -> TimingState:
    """Time ``netlist``; the result equals a from-scratch pass.

    Without an overlay the pass runs once per netlist revision and
    library; later calls take its records from ``netlist.memo()`` and add
    1 to the ``sta.timing_shared`` counter.

    Raises
    ------
    TimingError
        If the design has no capture point at all (no primary outputs
        and no flip-flops): there is no register-to-register or
        port-to-port path to time, and silently reporting a zero-delay
        circuit would hide the modelling error.
    """
    if library is None:
        library = default_library()
    _require_capture_points(netlist)
    if overlay is not None:
        records = _forward_pass(netlist, library, overlay)
    else:
        # Keyed on the library object itself, which the memo then
        # holds, so the key cannot be taken over by another library.
        memo = netlist.memo()
        key = ("timing", library)
        records = memo.get(key)
        if records is None:
            records = memo[key] = _forward_pass(netlist, library, None)
        else:
            get_recorder().incr("sta.timing_shared")
    return TimingState(netlist, library, overlay, *records)


def _forward_pass(netlist: Netlist, library: Library,
                  overlay: Optional[DelayOverlay]) -> tuple:
    """A from-scratch pass: the gate records, delays, arrivals, ranks
    and order of a :class:`TimingState`.  Nothing returned references
    ``netlist``, so the records can live in its memo."""
    # Arrival propagation runs on the compiled flat arrays: slot order
    # is primary inputs, state inputs, then gates topologically.
    compiled = compile_netlist(netlist)
    n_slots = len(compiled.names)
    arr: List[float] = [0.0] * n_slots
    for i in range(compiled.n_inputs, compiled.n_prefix):
        arr[i] = CLK_TO_Q

    delay: Dict[str, float] = {}
    base = compiled.n_prefix
    fanins = compiled.fanins
    order = compiled.order
    if overlay is None:
        loads = _shared_loads(netlist, library)
    else:
        loads = net_loads(netlist, library, overlay)
    for pos, name in enumerate(order):
        cell = cell_of(netlist, library, name)
        d = _rc_delay(cell, name, loads[name], overlay)
        delay[name] = d
        best = 0.0
        for f in fanins[pos]:
            t = arr[f]
            if t > best:
                best = t
        arr[base + pos] = best + d
    return (
        dict(zip(netlist.gate_names(), netlist.gates())),
        delay,
        dict(zip(compiled.names, arr)),
        {name: pos for pos, name in enumerate(order)},
        order,
    )


def _require_capture_points(netlist: Netlist) -> None:
    # Capture points: primary outputs (no setup) and DFF data pins
    # (setup).  Checked up front so the error does not depend on how far
    # delay calculation got on an endpoint-free design.
    if not netlist.outputs and not netlist.state_outputs:
        raise TimingError(
            f"{netlist.name}: no capture points (no primary outputs and "
            f"no flip-flops) -- nothing to time"
        )


def _worst_endpoint(netlist: Netlist, arrival: Dict[str, float],
                    ) -> Tuple[Optional[str], float]:
    """The latest endpoint and its arrival (setup at flip-flop data)."""
    worst_net = None
    worst_time = 0.0
    for net in netlist.outputs:
        t = arrival.get(net, 0.0)
        if t >= worst_time:
            worst_time, worst_net = t, net
    for net in netlist.state_outputs:
        t = arrival.get(net, 0.0) + SETUP_TIME
        if t >= worst_time:
            worst_time, worst_net = t, net
    return worst_net, worst_time


def _backtrack(gates: Dict[str, Gate], arrival: Dict[str, float],
               end_net: Optional[str]) -> List[str]:
    """Walk the worst-arrival chain back to a launch point."""
    if end_net is None:
        return []
    path = [end_net]
    current = end_net
    while True:
        gate = gates[current]
        if gate.is_input or gate.is_dff or not gate.fanin:
            break
        pred = max(gate.fanin, key=lambda net: arrival.get(net, 0.0))
        path.append(pred)
        current = pred
    path.reverse()
    return path


def analyze(netlist: Netlist, library: Optional[Library] = None,
            overlay: Optional[DelayOverlay] = None) -> TimingReport:
    """Run STA and return a :class:`TimingReport`.

    Raises :class:`~repro.errors.TimingError` on a design with no
    capture points (see :func:`timing_state`).
    """
    return timing_state(netlist, library, overlay).report()


def critical_delay(netlist: Netlist, library: Optional[Library] = None,
                   overlay: Optional[DelayOverlay] = None) -> float:
    """Shorthand for ``analyze(...).critical_delay``."""
    return timing_state(netlist, library, overlay).critical_delay


def required_times(netlist: Netlist, clock_period: float,
                   library: Optional[Library] = None,
                   overlay: Optional[DelayOverlay] = None) -> Dict[str, float]:
    """Required arrival time at every net for the given clock period."""
    return timing_state(netlist, library, overlay).required_times(
        clock_period
    )


def net_slacks(netlist: Netlist, clock_period: float,
               library: Optional[Library] = None,
               overlay: Optional[DelayOverlay] = None) -> Dict[str, float]:
    """Slack per net: required - arrival (clock_period based)."""
    return timing_state(netlist, library, overlay).slacks(clock_period)

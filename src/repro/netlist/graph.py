"""Graph algorithms over netlists.

All traversals treat the *combinational core*: primary inputs and DFF
outputs are sources, primary outputs and DFF data pins are sinks.  DFFs
therefore never appear inside a topological order -- they cut the graph.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Set, Tuple

from ..errors import NetlistError
from .gate import Gate
from .netlist import Netlist


def topological_order(netlist: Netlist) -> List[str]:
    """Combinational gates in dependency order (fanin before fanout).

    Raises
    ------
    NetlistError
        If the combinational core contains a cycle.
    """
    indegree: Dict[str, int] = {}
    for gate in netlist.combinational_gates():
        count = 0
        for net in set(gate.fanin):  # unique: fanout decrements once per net
            driver = netlist.gate(net)
            if driver.is_combinational:
                count += 1
        indegree[gate.name] = count

    ready = deque(sorted(name for name, deg in indegree.items() if deg == 0))
    order: List[str] = []
    while ready:
        name = ready.popleft()
        order.append(name)
        for sink_name in sorted(netlist.fanout(name)):
            if sink_name in indegree:
                indegree[sink_name] -= 1
                if indegree[sink_name] == 0:
                    ready.append(sink_name)
    if len(order) != len(indegree):
        cyclic = sorted(n for n, d in indegree.items() if d > 0)
        raise NetlistError(
            f"combinational loop through {len(cyclic)} gates "
            f"(e.g. {cyclic[:5]})"
        )
    return order


def levelize(netlist: Netlist) -> Dict[str, int]:
    """Logic level of every net: sources are level 0, a gate is one more
    than its deepest fanin."""
    levels: Dict[str, int] = {net: 0 for net in netlist.core_inputs}
    for name in topological_order(netlist):
        gate = netlist.gate(name)
        levels[name] = 1 + max(
            (levels.get(net, 0) for net in gate.fanin), default=0
        )
    return levels


def logic_depth(netlist: Netlist) -> int:
    """Depth of the deepest combinational path (in gate levels)."""
    levels = levelize(netlist)
    sinks = [net for net in netlist.core_outputs if net in levels]
    if not sinks:
        return 0
    return max(levels[net] for net in sinks)


def transitive_fanin(netlist: Netlist, nets: Iterable[str]) -> Set[str]:
    """All nets on which ``nets`` combinationally depend (inclusive)."""
    seen: Set[str] = set()
    stack = list(nets)
    while stack:
        net = stack.pop()
        if net in seen:
            continue
        seen.add(net)
        driver = netlist.gate(net)
        if driver.is_combinational:
            stack.extend(driver.fanin)
    return seen


def fanout_cone(netlist: Netlist, nets: Iterable[str]) -> Set[str]:
    """All combinational gates reachable downstream of ``nets``."""
    seen: Set[str] = set()
    stack = list(nets)
    while stack:
        net = stack.pop()
        for sink_name in netlist.fanout(net):
            sink = netlist.gate(sink_name)
            if sink.is_combinational and sink_name not in seen:
                seen.add(sink_name)
                stack.append(sink_name)
    return seen


def first_level_gates(netlist: Netlist,
                      sources: Iterable[str] | None = None) -> List[str]:
    """The *unique first-level gates*: combinational gates fed directly by
    a state input (scan flip-flop output).

    This is the set FLH inserts gating logic into (paper, Table I column
    "Unique fanouts").  ``sources`` defaults to all state inputs; pass a
    different net list to analyse the fanout of other nets.
    """
    if sources is None:
        sources = netlist.state_inputs
    unique: Set[str] = set()
    for net in sources:
        for sink_name in netlist.fanout(net):
            if netlist.gate(sink_name).is_combinational:
                unique.add(sink_name)
    return sorted(unique)


def total_state_fanout(netlist: Netlist) -> int:
    """Total fanout connections of all state inputs (paper, Table I
    column "Total fanouts"); counts one per gate sink, with a gate
    sampled once per source but counting multiplicity across sources."""
    total = 0
    for net in netlist.state_inputs:
        for sink_name in netlist.fanout(net):
            if netlist.gate(sink_name).is_combinational:
                total += 1
    return total


def paths_through(netlist: Netlist, net: str) -> Tuple[int, int]:
    """(fanin cone size, fanout cone size) of a net -- a cheap centrality
    measure used by the synthetic benchmark generator's statistics."""
    fin = len(transitive_fanin(netlist, [net]))
    fout = len(fanout_cone(netlist, [net]))
    return fin, fout


def reached_outputs(netlist: Netlist, net: str) -> Set[str]:
    """Core outputs reachable from ``net`` through combinational logic."""
    cone = fanout_cone(netlist, [net])
    cone.add(net)
    return {out for out in netlist.core_outputs if out in cone}


def is_acyclic(netlist: Netlist) -> bool:
    """True if the combinational core has no cycles."""
    try:
        topological_order(netlist)
    except NetlistError:
        return False
    return True


def gate_level_order(netlist: Netlist) -> List[List[str]]:
    """Gates grouped by logic level, each group sorted by name."""
    levels = levelize(netlist)
    by_level: Dict[int, List[str]] = {}
    for name in topological_order(netlist):
        by_level.setdefault(levels[name], []).append(name)
    return [sorted(by_level[level]) for level in sorted(by_level)]

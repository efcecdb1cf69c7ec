"""Switching-activity extraction from random-vector simulation.

Activity of a net = average toggles per clock cycle over the vector
stream, the quantity the dynamic-power model multiplies by the switched
capacitance.  The paper measures power "by applying 100 random vectors
to the inputs"; :func:`switching_activity` is that run.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

from ..netlist import Netlist
from .logicsim import LogicSimulator

#: Paper's vector count for the NanoSim power measurement.
DEFAULT_VECTORS = 100


def activity_from_frames(frames: Sequence[Mapping[str, int]]) -> Dict[str, float]:
    """Toggles per cycle for every net given consecutive value frames."""
    if len(frames) < 2:
        return {net: 0.0 for net in (frames[0] if frames else {})}
    toggles: Dict[str, int] = {net: 0 for net in frames[0]}
    previous = frames[0]
    for frame in frames[1:]:
        for net, value in frame.items():
            if value != previous.get(net, 0):
                toggles[net] = toggles.get(net, 0) + 1
        previous = frame
    cycles = len(frames) - 1
    return {net: count / cycles for net, count in toggles.items()}


def switching_activity(netlist: Netlist, n_vectors: int = DEFAULT_VECTORS,
                       seed: int = 2005,
                       simulator: Optional[LogicSimulator] = None,
                       ) -> Dict[str, float]:
    """Per-net toggles/cycle under ``n_vectors`` random input vectors.

    Equal, key order included, to ``activity_from_frames`` over
    ``run_sequential`` of the same vectors, but computed from
    :meth:`LogicSimulator.run_packed`'s per-net words: a net's toggles
    are the set bits of ``word ^ (word >> 1)`` over the cycle pairs.
    """
    sim = simulator or LogicSimulator(netlist)
    vectors = sim.random_vectors(n_vectors, seed=seed)
    words = sim.run_packed(vectors)
    names = sim.compiled.names
    cycles = len(vectors) - 1
    if cycles < 1:
        return {net: 0.0 for net in names} if vectors else {}
    pairs = (1 << cycles) - 1
    # bin().count: int.bit_count needs Python 3.10.
    return {
        net: bin((word ^ (word >> 1)) & pairs).count("1") / cycles
        for net, word in zip(names, words)
    }


def mean_activity(activity: Mapping[str, float]) -> float:
    """Average toggles/cycle across all nets (diagnostic)."""
    if not activity:
        return 0.0
    return sum(activity.values()) / len(activity)

"""Small transient circuit simulator (the HSPICE substitute).

Public surface::

    from repro.spice import TransientCircuit, Mosfet, simulate
    from repro.spice import floating_decay, flh_hold, build_gated_chain
"""

from .circuit import (
    GND_NODE,
    VDD_NODE,
    TransientCircuit,
    constant,
    step_wave,
)
from .mosfet import Mosfet
from .testbenches import (
    DECAY_DEADLINE,
    DECAY_LEVEL,
    DecayReport,
    HoldReport,
    build_gated_chain,
    flh_hold,
    floating_decay,
)
from .transient import TransientResult, simulate

__all__ = [
    "DECAY_DEADLINE",
    "DECAY_LEVEL",
    "DecayReport",
    "GND_NODE",
    "HoldReport",
    "Mosfet",
    "TransientCircuit",
    "TransientResult",
    "VDD_NODE",
    "build_gated_chain",
    "constant",
    "flh_hold",
    "floating_decay",
    "simulate",
    "step_wave",
]

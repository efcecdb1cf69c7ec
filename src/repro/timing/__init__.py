"""Static timing analysis.

Public surface::

    from repro.timing import analyze, critical_delay, net_slacks
    from repro.timing import DelayOverlay, TimingReport
    from repro.timing import TimingState, timing_state  # incremental re-timing
"""

from .delay_model import (
    CLK_TO_Q,
    SETUP_TIME,
    WIRE_CAP_PER_FANOUT,
    DelayOverlay,
    gate_delay,
    load_on_net,
)
from .sta import (
    TimingReport,
    TimingState,
    analyze,
    critical_delay,
    net_slacks,
    required_times,
    timing_state,
)
from .variation import VariationReport, monte_carlo_delay

__all__ = [
    "CLK_TO_Q",
    "DelayOverlay",
    "SETUP_TIME",
    "TimingReport",
    "TimingState",
    "VariationReport",
    "WIRE_CAP_PER_FANOUT",
    "monte_carlo_delay",
    "analyze",
    "critical_delay",
    "gate_delay",
    "load_on_net",
    "net_slacks",
    "required_times",
    "timing_state",
]

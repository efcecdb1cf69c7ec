"""Logic simulation, switching activity and power analysis.

Public surface::

    from repro.power import LogicSimulator, switching_activity
    from repro.power import analyze_power, PowerReport, PowerOverlay
"""

from .activity import (
    DEFAULT_VECTORS,
    activity_from_frames,
    mean_activity,
    switching_activity,
)
from .logicsim import LogicSimulator, pack_patterns, unpack_word
from .power_model import (
    PowerOverlay,
    PowerReport,
    analyze_power,
    clock_power,
    dynamic_power,
    leakage_power,
)

__all__ = [
    "DEFAULT_VECTORS",
    "LogicSimulator",
    "PowerOverlay",
    "PowerReport",
    "activity_from_frames",
    "analyze_power",
    "clock_power",
    "dynamic_power",
    "leakage_power",
    "mean_activity",
    "pack_patterns",
    "switching_activity",
    "unpack_word",
]

"""Clock-level test application: scan shifting and two-pattern protocols.

Public surface::

    from repro.testapp import ScanChainSimulator, shift_power_study
    from repro.testapp import apply_two_pattern, apply_broadside
    from repro.testapp import apply_skewed_load, FIG5B_SEQUENCE
"""

from .protocols import (
    FIG5B_SEQUENCE,
    ProtocolTrace,
    apply_broadside,
    apply_skewed_load,
    apply_two_pattern,
)
from .scan_chain import (
    ISOLATING_STYLES,
    ScanChainSimulator,
    ShiftPowerStudy,
    ShiftTrace,
    shift_power_study,
)

__all__ = [
    "FIG5B_SEQUENCE",
    "ISOLATING_STYLES",
    "ProtocolTrace",
    "ScanChainSimulator",
    "ShiftPowerStudy",
    "ShiftTrace",
    "apply_broadside",
    "apply_skewed_load",
    "apply_two_pattern",
    "shift_power_study",
]

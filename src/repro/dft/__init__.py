"""Design-for-test transforms: scan, enhanced scan, MUX-hold, FLH.

Public surface::

    from repro.dft import insert_scan, insert_enhanced_scan
    from repro.dft import insert_mux_hold, insert_flh, FlhConfig
    from repro.dft import build_all_styles, compare_area, compare_delay
    from repro.dft import compare_power, optimize_fanout
"""

from .enhanced_scan import insert_enhanced_scan
from .fanout_opt import FanoutOptResult, combinational_power, optimize_fanout
from .flh import (
    FlhConfig,
    flh_delay_overlay,
    flh_extra_area,
    flh_power_overlay,
    gating_resistance,
    insert_flh,
    keeper_internal_energy,
    keeper_load,
)
from .mux_hold import insert_mux_hold
from .partial_enhanced import insert_partial_enhanced, rank_flip_flops
from .overhead import (
    OverheadComparison,
    area_breakdown,
    build_all_styles,
    compare_area,
    compare_delay,
    compare_power,
    design_delay,
    design_power,
    total_area,
)
from .scan import insert_scan
from .styles import (
    ARBITRARY_TWO_PATTERN_STYLES,
    STYLES,
    DftDesign,
    FlhGating,
)

__all__ = [
    "ARBITRARY_TWO_PATTERN_STYLES",
    "DftDesign",
    "FanoutOptResult",
    "FlhConfig",
    "FlhGating",
    "OverheadComparison",
    "STYLES",
    "area_breakdown",
    "build_all_styles",
    "combinational_power",
    "compare_area",
    "compare_delay",
    "compare_power",
    "design_delay",
    "design_power",
    "flh_delay_overlay",
    "flh_extra_area",
    "flh_power_overlay",
    "gating_resistance",
    "insert_enhanced_scan",
    "insert_flh",
    "insert_mux_hold",
    "insert_partial_enhanced",
    "insert_scan",
    "rank_flip_flops",
    "keeper_internal_energy",
    "keeper_load",
    "optimize_fanout",
    "total_area",
]

"""Uniform area / delay / power accounting across DFT styles.

These helpers produce exactly the quantities of the paper's Tables I-III:
percentage increase of area (total transistor active area), critical-path
delay, and normal-mode power of each holding scheme over the plain
full-scan baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from .. import units
from ..cells import Library, default_library
from ..errors import DftError
from ..netlist import Netlist
from ..power import PowerReport, analyze_power, switching_activity
from ..synth import map_netlist
from ..timing import analyze
from .enhanced_scan import insert_enhanced_scan
from .flh import (
    FlhConfig,
    flh_delay_overlay,
    flh_extra_area,
    flh_power_overlay,
    insert_flh,
)
from .mux_hold import insert_mux_hold
from .scan import insert_scan
from .styles import DftDesign


def total_area(design: DftDesign) -> float:
    """Total transistor active area of the design, m^2 (paper's metric)."""
    library = design.library
    area = 0.0
    for gate in design.netlist.gates():
        if gate.cell is None:
            continue
        area += library.cell(gate.cell).area
    if design.style == "flh":
        area += flh_extra_area(design)
    return area


def area_breakdown(design: DftDesign) -> Dict[str, float]:
    """Total area split by component class, m^2.

    Keys: ``logic`` (combinational cells), ``sequential`` (flip-flops),
    ``holding`` (hold latches / MUX elements), ``gating`` and ``keeper``
    (FLH devices).  The values sum to :func:`total_area`.
    """
    library = design.library
    hold_set = set(design.hold_elements)
    breakdown = {
        "logic": 0.0, "sequential": 0.0, "holding": 0.0,
        "gating": 0.0, "keeper": 0.0,
    }
    for gate in design.netlist.gates():
        if gate.cell is None:
            continue
        area = library.cell(gate.cell).area
        if gate.name in hold_set:
            breakdown["holding"] += area
        elif gate.is_dff:
            breakdown["sequential"] += area
        else:
            breakdown["logic"] += area
    if design.style == "flh":
        keeper = library.cell(FlhConfig().keeper_cell)
        breakdown["keeper"] = len(design.flh_gating) * keeper.area
        breakdown["gating"] = flh_extra_area(design) - breakdown["keeper"]
    return breakdown


def design_delay(design: DftDesign) -> float:
    """Critical-path delay of the design, seconds."""
    overlay = flh_delay_overlay(design) if design.style == "flh" else None
    return analyze(design.netlist, design.library, overlay).critical_delay


def design_power(design: DftDesign, n_vectors: int = 100,
                 seed: int = 2005,
                 frequency: float = units.FCLK_NORMAL) -> PowerReport:
    """Normal-mode power of the design."""
    return _design_power(design, n_vectors, seed, frequency)


def _design_power(design: DftDesign, n_vectors: int, seed: int,
                  frequency: float = units.FCLK_NORMAL,
                  activity: Optional[Mapping[str, float]] = None,
                  ) -> PowerReport:
    overlay = flh_power_overlay(design) if design.style == "flh" else None
    return analyze_power(
        design.netlist,
        design.library,
        overlay,
        n_vectors=n_vectors,
        seed=seed,
        frequency=frequency,
        activity=activity,
    )


def build_all_styles(netlist: Netlist,
                     library: Optional[Library] = None,
                     flh_config: Optional[FlhConfig] = None,
                     pre_mapped: bool = False) -> Dict[str, DftDesign]:
    """Map + scan a netlist and derive all three holding styles.

    Returns ``{"scan": ..., "enhanced": ..., "mux": ..., "flh": ...}``.
    """
    if library is None:
        library = default_library()
    mapped = netlist if pre_mapped else map_netlist(netlist, library)
    scan = insert_scan(mapped, library)
    return {
        "scan": scan,
        "enhanced": insert_enhanced_scan(scan),
        "mux": insert_mux_hold(scan),
        "flh": insert_flh(scan, flh_config),
    }


@dataclass(frozen=True)
class OverheadComparison:
    """Percentage overheads of the three holding styles over plain scan.

    ``improvement_vs_enhanced`` / ``improvement_vs_mux`` follow the
    paper: percentage reduction of FLH's *overhead* relative to the
    other scheme's overhead.
    """

    circuit: str
    metric: str
    baseline: float
    enhanced_pct: float
    mux_pct: float
    flh_pct: float

    @property
    def improvement_vs_enhanced(self) -> float:
        """(enhanced - flh) / enhanced, in percent."""
        return _overhead_improvement(self.enhanced_pct, self.flh_pct)

    @property
    def improvement_vs_mux(self) -> float:
        """(mux - flh) / mux, in percent."""
        return _overhead_improvement(self.mux_pct, self.flh_pct)

    def as_row(self) -> Dict[str, object]:
        """Flat dict for tabular reports."""
        return {
            "circuit": self.circuit,
            "enhanced_%": round(self.enhanced_pct, 2),
            "mux_%": round(self.mux_pct, 2),
            "flh_%": round(self.flh_pct, 2),
            "improve_vs_mux_%": round(self.improvement_vs_mux, 1),
            "improve_vs_enh_%": round(self.improvement_vs_enhanced, 1),
        }


def _overhead_improvement(other_pct: float, flh_pct: float) -> float:
    if other_pct == 0.0:
        return 0.0
    return (other_pct - flh_pct) / abs(other_pct) * 100.0


def _pct(value: float, base: float) -> float:
    if base == 0.0:
        raise DftError("baseline value is zero; cannot compute overhead")
    return (value - base) / base * 100.0


def compare_area(designs: Mapping[str, DftDesign]) -> OverheadComparison:
    """Table I row: percentage area increase per style."""
    base = total_area(designs["scan"])
    return OverheadComparison(
        circuit=designs["scan"].name,
        metric="area",
        baseline=base,
        enhanced_pct=_pct(total_area(designs["enhanced"]), base),
        mux_pct=_pct(total_area(designs["mux"]), base),
        flh_pct=_pct(total_area(designs["flh"]), base),
    )


def compare_delay(designs: Mapping[str, DftDesign]) -> OverheadComparison:
    """Table II row: percentage critical-path delay increase per style."""
    base = design_delay(designs["scan"])
    return OverheadComparison(
        circuit=designs["scan"].name,
        metric="delay",
        baseline=base,
        enhanced_pct=_pct(design_delay(designs["enhanced"]), base),
        mux_pct=_pct(design_delay(designs["mux"]), base),
        flh_pct=_pct(design_delay(designs["flh"]), base),
    )


def compare_power(designs: Mapping[str, DftDesign],
                  n_vectors: int = 100, seed: int = 2005,
                  ) -> OverheadComparison:
    """Table III row: percentage normal-mode power increase per style.

    ``insert_flh`` adds no gates, so the FLH design shares the scan
    design's netlist object and, with it, the scan design's switching
    activity: that simulation runs once.
    """
    scan = designs["scan"]
    activity = switching_activity(scan.netlist, n_vectors, seed)

    def power(design: DftDesign) -> float:
        shared = activity if design.netlist is scan.netlist else None
        return _design_power(design, n_vectors, seed,
                             activity=shared).total

    base = power(scan)
    return OverheadComparison(
        circuit=scan.name,
        metric="power",
        baseline=base,
        enhanced_pct=_pct(power(designs["enhanced"]), base),
        mux_pct=_pct(power(designs["mux"]), base),
        flh_pct=_pct(power(designs["flh"]), base),
    )

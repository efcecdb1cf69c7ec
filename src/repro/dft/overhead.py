"""Uniform area / delay / power accounting across DFT styles.

These helpers produce exactly the quantities of the paper's Tables I-III:
percentage increase of area (total transistor active area), critical-path
delay, and normal-mode power of each holding scheme over the plain
full-scan baseline.

The comparisons analyse the scan design once.  An enhanced-scan or
MUX-hold design built from it is the scan netlist plus one transparent
``BUF`` per held flip-flop (see ``_insert_hold_elements``), so it is
re-timed as those edits and takes the scan design's switching activity;
any other design is timed and simulated on its own.  Either way the
numbers equal :func:`design_delay` and :func:`design_power` exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from .. import units
from ..cells import Library, default_library
from ..errors import DftError
from ..netlist import Netlist
from ..obs import get_recorder
from ..power import PowerReport, analyze_power, switching_activity
from ..synth import map_netlist
from ..timing import critical_delay, timing_state
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
    return critical_delay(design.netlist, design.library, overlay)


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


def _holds_scan(scan: DftDesign, design: DftDesign) -> bool:
    """True when ``design`` is ``scan``'s netlist plus transparent holds.

    That is: its netlist is a copy of the scan netlist at its current
    revision; it shares the scan design's library; every hold element
    is a new ``BUF`` whose only fanin is its own held flip-flop; and
    every other edited gate is the scan gate with those flip-flops
    swapped for their hold elements.  Then every net keeps its scan
    waveform and each hold element carries its flip-flop's.
    """
    netlist, base = design.netlist, scan.netlist
    if netlist is base or design.library is not scan.library:
        return False
    edits = netlist.edits_since(base.revision())
    if edits is None or (len(design.hold_elements)
                         != len(design.held_flip_flops)):
        return False
    swap: Dict[str, str] = {}
    for hold, ff in zip(design.hold_elements, design.held_flip_flops):
        if base.has_net(hold) or not netlist.has_net(hold):
            return False
        gate = netlist.gate(hold)
        if gate.func != "BUF" or gate.fanin != (ff,) or not base.has_net(ff):
            return False
        swap[ff] = hold
    holds = set(design.hold_elements)
    for name in edits - holds:
        if not (netlist.has_net(name) and base.has_net(name)):
            return False
        gate = base.gate(name)
        if netlist.gate(name) != gate.with_fanin(
                swap.get(net, net) for net in gate.fanin):
            return False
    return True


def _hold_activity(scan: DftDesign, design: DftDesign,
                   activity: Mapping[str, float],
                   ) -> Optional[Dict[str, float]]:
    """``design``'s switching activity from the scan design's, or None.

    ``activity`` is ``switching_activity(scan.netlist, ...)``.  When
    :func:`_holds_scan` holds, the result equals
    ``switching_activity(design.netlist, ...)`` with the same arguments.
    """
    if not _holds_scan(scan, design):
        return None
    derived = dict(activity)
    for hold, ff in zip(design.hold_elements, design.held_flip_flops):
        derived[hold] = activity[ff]
    return derived


def compare_delay(designs: Mapping[str, DftDesign]) -> OverheadComparison:
    """Table II row: percentage critical-path delay increase per style.

    The scan design is timed once; the enhanced and MUX designs are
    re-timed from it as its edits (:meth:`TimingState.retimed`, exact),
    and their count goes to the ``sta.retimed`` counter.  FLH keeps its
    overlay timing.
    """
    scan = designs["scan"]
    timing = timing_state(scan.netlist, scan.library)
    retimed = 0

    def delay(design: DftDesign) -> float:
        nonlocal retimed
        if not _holds_scan(scan, design):
            return design_delay(design)
        retimed += 1
        return timing.retimed(design.netlist).critical_delay

    base = timing.critical_delay
    comparison = OverheadComparison(
        circuit=scan.name,
        metric="delay",
        baseline=base,
        enhanced_pct=_pct(delay(designs["enhanced"]), base),
        mux_pct=_pct(delay(designs["mux"]), base),
        flh_pct=_pct(design_delay(designs["flh"]), base),
    )
    get_recorder().incr("sta.retimed", retimed)
    return comparison


def compare_power(designs: Mapping[str, DftDesign],
                  n_vectors: int = 100, seed: int = 2005,
                  ) -> OverheadComparison:
    """Table III row: percentage normal-mode power increase per style.

    The switching-activity simulation runs once, on the scan netlist.
    ``insert_flh`` adds no gates, so the FLH design shares that netlist
    and its activity.  The enhanced and MUX designs take it too, each
    hold element with its flip-flop's activity; their count goes to the
    ``power.activity_shared`` counter.
    """
    scan = designs["scan"]
    activity = switching_activity(scan.netlist, n_vectors, seed)
    shared = 0

    def power(design: DftDesign) -> float:
        nonlocal shared
        if design.netlist is scan.netlist:
            own: Optional[Mapping[str, float]] = activity
        else:
            own = _hold_activity(scan, design, activity)
            if own is not None:
                shared += 1
        return _design_power(design, n_vectors, seed, activity=own).total

    base = power(scan)
    comparison = OverheadComparison(
        circuit=scan.name,
        metric="power",
        baseline=base,
        enhanced_pct=_pct(power(designs["enhanced"]), base),
        mux_pct=_pct(power(designs["mux"]), base),
        flh_pct=_pct(power(designs["flh"]), base),
    )
    get_recorder().incr("power.activity_shared", shared)
    return comparison

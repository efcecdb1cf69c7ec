"""Section V: local fanout optimization under a delay constraint.

FLH pays per *unique first-level gate*, so flip-flops with many fanout
gates are expensive.  The paper's "low-complexity local fanout reduction
algorithm":

1. pick the scan flip-flops with the highest unique fanout;
2. insert two cascaded inverters between each such flip-flop and its
   fanout gates, so the flip-flop drives exactly one first-level gate;
3. never touch the critical path ("maximum circuit delay is kept
   unaltered") -- each insertion is made on a copy of the netlist,
   re-timed incrementally, and dropped if it degrades the clock;
4. re-synthesize the second inverter with its fanout gates: inverters
   already hanging off the flip-flop are reused (then only one new
   inverter is needed; an inverter that is a primary output keeps its
   polarity and is not reused), and any inverter fed by the second
   inverter is folded back onto the first.

The result can leave *fewer first-level gates than flip-flops* (the
paper calls out s5378): optimized flip-flops contribute one gate each
and the remaining fanout cones keep overlapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from .. import units
from ..cells import Library, make_gating_pair
from ..errors import DftError
from ..netlist import Netlist, first_level_gates
from ..obs import get_recorder
from ..power import PowerOverlay, dynamic_power, leakage_power, switching_activity
from ..synth.resynth import (
    collapse_double_inverters,
    insert_buffer_pair,
    inverter_drive_for_fanout,
)
from ..timing import timing_state
from .flh import FlhConfig, _insert_flh, flh_power_overlay
from .overhead import total_area
from .scan import insert_scan
from .styles import DftDesign


@dataclass(frozen=True)
class FanoutOptResult:
    """Table IV row: FLH cost before and after fanout optimization."""

    circuit: str
    n_ffs: int
    first_level_before: int
    first_level_after: int
    area_overhead_before_pct: float
    area_overhead_after_pct: float
    comb_power_before: float
    comb_power_after: float
    buffers_added: int
    ffs_optimized: int
    optimized: DftDesign

    @property
    def area_improvement_pct(self) -> float:
        """Reduction of the FLH area overhead, percent."""
        if self.area_overhead_before_pct == 0.0:
            return 0.0
        return (
            (self.area_overhead_before_pct - self.area_overhead_after_pct)
            / self.area_overhead_before_pct * 100.0
        )

    def as_row(self) -> Dict[str, object]:
        """Flat dict for tabular reports."""
        return {
            "circuit": self.circuit,
            "FF": self.n_ffs,
            "fanout_before": self.first_level_before,
            "fanout_after": self.first_level_after,
            "area_ovh_before_%": round(self.area_overhead_before_pct, 2),
            "area_ovh_after_%": round(self.area_overhead_after_pct, 2),
            "improv_%": round(self.area_improvement_pct, 1),
            "comb_power_before_uW": round(
                self.comb_power_before / units.UW, 2
            ),
            "comb_power_after_uW": round(self.comb_power_after / units.UW, 2),
        }


def _unique_comb_fanout(netlist: Netlist, ff: str) -> List[str]:
    return sorted(
        sink for sink in netlist.fanout(ff)
        if netlist.gate(sink).is_combinational
    )


def _reusable_inverters(netlist: Netlist, sinks: List[str]) -> List[str]:
    """The inverters among ``sinks`` the reuse path may rewire.

    Reuse turns ``INV_orig`` into ``NOT(INV_new)``, which flips its
    value; that is only safe when every reader of it is moved onto
    ``INV_new``, which a primary output cannot be.
    """
    outputs = set(netlist.outputs)
    return [
        s for s in sinks
        if netlist.gate(s).func == "NOT" and s not in outputs
    ]


def _gating_pair_area(width_factor: float) -> float:
    header, footer = make_gating_pair(width_factor)
    return header.area + footer.area


def _inv1_width_factor(slack: float, library: Library,
                       flh_config: FlhConfig) -> float:
    """Width factor the FLH insertion would pick for the new inverter.

    The buffer's first inverter becomes a first-level gate; with little
    slack left its gating devices must be wide.  Half the flip-flop's
    output slack is budgeted for the two added inverter delays, the rest
    for the gating penalty -- mirroring :func:`repro.dft.flh.insert_flh`.
    """
    from .flh import gating_penalty, keeper_load

    inv = library.cell(library.for_func("NOT", 1).name)
    keeper_cap = keeper_load(library, flh_config.keeper_cell)
    budget = max(slack, 0.0) * 0.5
    load = 2 * inv.input_cap  # drives the second inverter
    for factor in flh_config.width_factors:
        penalty = gating_penalty(
            inv.drive_resistance, inv.output_cap, load, keeper_cap, factor
        )
        if penalty <= budget:
            return factor
    return flh_config.width_factors[-1]


def _estimated_gain(netlist: Netlist, ff: str, library: Library,
                    flh_config: FlhConfig, slack: float,
                    state_inputs: Set[str]) -> float:
    """Net FLH-area saving (m^2) of buffering ``ff``'s fanout.

    Only fanout gates *exclusively* fed by this flip-flop leave the
    first-level set (a gate also fed by another flip-flop stays gated);
    the new first inverter becomes a first-level gate itself -- with
    gating sized for the remaining slack -- and the second inverter
    costs plain cell area.  ``state_inputs`` is the netlist's set of
    flip-flop outputs, which buffering never changes.
    """
    keeper = library.cell(flh_config.keeper_cell)
    per_gate = keeper.area + _gating_pair_area(flh_config.width_factors[0])

    leaving = 0
    sinks = _unique_comb_fanout(netlist, ff)
    for sink in sinks:
        gate = netlist.gate(sink)
        if not any(f != ff and f in state_inputs for f in gate.fanin):
            leaving += 1
    inv_area = library.cell(library.for_func("NOT", 1).name).area
    has_inverter = bool(_reusable_inverters(netlist, sinks))
    n_new_inverters = 1 if has_inverter else 2
    inv1_cost = keeper.area + _gating_pair_area(
        _inv1_width_factor(slack, library, flh_config)
    )
    return leaving * per_gate - (n_new_inverters * inv_area + inv1_cost)


def _optimize_one_ff(netlist: Netlist, ff: str, library: Library) -> int:
    """Buffer one flip-flop's fanout; returns inverters added (0-2)."""
    sinks = _unique_comb_fanout(netlist, ff)
    inverters = _reusable_inverters(netlist, sinks)
    inv_cell = library.for_func("NOT", 1).name

    if inverters:
        # Reuse: FF -> INV_new -> INV_orig(= FF polarity) -> other sinks.
        # Every reader of a reused inverter, a flip-flop data pin
        # included, moves onto INV_new.
        inv_orig = inverters[0]
        inv_new = netlist.fresh_net(f"{ff}_n")
        netlist.add(inv_new, "NOT", (ff,), cell=inv_cell)
        # Duplicate inverters collapse onto INV_new.
        for extra in inverters[1:]:
            netlist.redirect_fanout(extra, inv_new)
            netlist.remove_gate(extra)
        netlist.redirect_fanout(inv_orig, inv_new)
        netlist.replace_gate(
            netlist.gate(inv_orig).with_fanin((inv_new,))
        )
        remaining = set(_unique_comb_fanout(netlist, ff)) - {inv_new}
        netlist.redirect_fanout(ff, inv_orig, only=remaining)
        resized = [inv_new]
        if remaining:
            resized.append(inv_orig)
        else:
            # Every sink was an inverter: INV_orig would drive nothing.
            netlist.remove_gate(inv_orig)
        # Re-size the surviving inverters for the fanout they now carry.
        for inv in resized:
            drive = inverter_drive_for_fanout(len(netlist.fanout(inv)))
            netlist.replace_gate(
                netlist.gate(inv).with_cell(
                    library.for_func("NOT", 1, drive=drive).name
                )
            )
        return 1

    inv1, inv2 = insert_buffer_pair(netlist, ff, library=library)
    collapse_double_inverters(netlist, inv1, inv2)
    return 2


def combinational_power(design: DftDesign, n_vectors: int = 100,
                        seed: int = 2005,
                        frequency: float = units.FCLK_NORMAL) -> float:
    """Normal-mode power of the combinational gates only (Table IV)."""
    overlay: Optional[PowerOverlay] = None
    if design.style == "flh":
        overlay = flh_power_overlay(design)
    activity = switching_activity(design.netlist, n_vectors, seed)
    comb = lambda gate: gate.is_combinational
    return (
        dynamic_power(design.netlist, activity, design.library, overlay,
                      frequency, gate_filter=comb)
        + leakage_power(design.netlist, design.library, overlay,
                        gate_filter=comb)
    )


def optimize_fanout(scan_design: DftDesign,
                    flh_config: Optional[FlhConfig] = None,
                    min_fanout: int = 2,
                    delay_tolerance: float = 1e-3,
                    n_vectors: int = 100,
                    seed: int = 2005,
                    max_candidates: Optional[int] = None) -> FanoutOptResult:
    """Run the Section V algorithm and report Table IV quantities.

    Parameters
    ----------
    scan_design:
        A plain ``"scan"`` design (the optimization reshapes its netlist
        copy, then FLH is re-inserted on the result).
    min_fanout:
        Only flip-flops with at least this many unique first-level gates
        are considered (buffering a fanout-1 flip-flop cannot help).
    delay_tolerance:
        Relative slack on the original critical delay; any insertion
        pushing past it is dropped.
    """
    if scan_design.style != "scan":
        raise DftError("fanout optimization expects a plain scan design")
    if flh_config is None:
        flh_config = FlhConfig()
    rec = get_recorder()
    with rec.span("fanout.optimize", cat="dft", circuit=scan_design.name):
        library = scan_design.library
        netlist = scan_design.netlist
        # The one full timing: each later design is timed by re-timing
        # a copy, and FLH sizing reads these states, not a new timing.
        timing = timing_state(netlist, library)
        limit = timing.critical_delay * (1.0 + delay_tolerance)
        slacks = timing.slacks(timing.critical_delay)

        flh_before = _insert_flh(scan_design, flh_config, timing)
        area_base = total_area(scan_design)
        ovh_before = (
            (total_area(flh_before) - area_base) / area_base * 100.0
        )
        fl_before = len(first_level_gates(netlist))
        power_before = combinational_power(flh_before, n_vectors, seed)

        state_inputs = set(netlist.state_inputs)
        gains = {
            ff: _estimated_gain(
                netlist, ff, library, flh_config, slacks.get(ff, 0.0),
                state_inputs,
            )
            for ff in scan_design.scan_chain
            if len(_unique_comb_fanout(netlist, ff)) >= min_fanout
        }
        candidates = sorted(
            (ff for ff, gain in gains.items() if gain > 0.0),
            key=lambda ff: -gains[ff],
        )
        if max_candidates is not None:
            candidates = candidates[:max_candidates]
        buffers_added = 0
        ffs_optimized = 0
        rejected = 0
        for ff in candidates:
            # Cheap prefilter: a flip-flop with no slack at its output is
            # on the critical path; the paper never buffers those.
            if slacks.get(ff, 0.0) <= 0.0:
                continue
            # Sharing may have changed since the estimate: re-check.
            if _estimated_gain(
                netlist, ff, library, flh_config, slacks.get(ff, 0.0),
                state_inputs,
            ) <= 0.0:
                continue
            # Edit a copy and re-time only what the edit moved; a
            # rejected copy is simply dropped, so nothing needs undoing.
            trial = netlist.copy(netlist.name)
            added = _optimize_one_ff(trial, ff, library)
            trial_timing = timing.retimed(trial)
            if trial_timing.critical_delay > limit:
                rejected += 1
                continue  # delay constraint violated
            netlist, timing = trial, trial_timing
            buffers_added += added
            ffs_optimized += 1
        rec.incr("fanout.candidates", len(candidates))
        rec.incr("fanout.accepted", ffs_optimized)
        rec.incr("fanout.rejected_delay", rejected)

        opt_scan = insert_scan(netlist, library,
                               chain_order=scan_design.scan_chain)
        # ``timing`` times ``netlist``, whose gate records the re-scanned
        # copy repeats.
        flh_after = _insert_flh(opt_scan, flh_config, timing)
        ovh_after = (
            (total_area(flh_after) - area_base) / area_base * 100.0
        )
        fl_after = len(first_level_gates(netlist))
        power_after = combinational_power(flh_after, n_vectors, seed)

        return FanoutOptResult(
            circuit=scan_design.name,
            n_ffs=scan_design.n_scan_cells,
            first_level_before=fl_before,
            first_level_after=fl_after,
            area_overhead_before_pct=ovh_before,
            area_overhead_after_pct=ovh_after,
            comb_power_before=power_before,
            comb_power_after=power_after,
            buffers_added=buffers_added,
            ffs_optimized=ffs_optimized,
            optimized=flh_after,
        )

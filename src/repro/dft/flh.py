"""First Level Hold (FLH): the paper's contribution.

Instead of holding the initialization pattern in a latch behind every
scan flip-flop, FLH holds the *response* of the combinational circuit:
the supply rails of the unique first-level gates (the fanout gates of
the scan flip-flops) are gated, and a minimum-sized keeper
(cross-coupled inverter pair behind a transmission gate, Fig. 3) pins
each gated output to its rail so leakage, crosstalk or charge sharing
cannot flip it during the scan of V2 (Figs. 2 and 4).

The functional netlist is untouched -- FLH adds no level of logic.  Its
cost appears as *overlays*:

* timing -- series resistance of the gating pair plus keeper load on
  each first-level gate output (:meth:`FlhDesign.delay_overlay`);
* power  -- keeper load/internal switching, keeper leakage, and the
  stacking-factor *reduction* of the gated gates' own leakage
  (:meth:`FlhDesign.power_overlay`);
* area   -- gating pair plus keeper transistors per gated gate
  (:func:`flh_extra_area`).

Gating transistors default to a modest width; gates on (or near) the
critical path are upsized, the paper's "size of the supply gating
transistors can be optimized for delay under the given area constraint".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from .. import units
from ..cells import Library, make_gating_pair
from ..errors import DftError
from ..netlist import first_level_gates
from ..power.power_model import PowerOverlay
from ..timing import DelayOverlay, TimingState, load_on_net, timing_state
from .styles import DftDesign, FlhGating


@dataclass(frozen=True)
class FlhConfig:
    """Sizing policy for the FLH insertion.

    Attributes
    ----------
    width_factors:
        Candidate header/footer widths (in minimum widths), smallest
        first.  Each first-level gate gets the smallest width whose
        delay penalty fits inside the gate's timing slack; gates with no
        adequate slack take the largest ("optimized for delay under the
        given area constraint", Section III).
    keeper_cell:
        Library name of the keeper element.
    """

    width_factors: tuple = (1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0)
    keeper_cell: str = "FLH_KEEPER"

    def __post_init__(self) -> None:
        # Keep the config hashable even when a caller passes the width
        # factors as a list -- configs key the experiment design cache.
        if not isinstance(self.width_factors, tuple):
            object.__setattr__(
                self, "width_factors", tuple(self.width_factors)
            )


def gating_penalty(cell_resistance: float, output_cap: float,
                   load: float, keeper_cap: float,
                   width_factor: float) -> float:
    """Extra delay a gating pair of ``width_factor`` adds to a gate.

    Series-resistance term over the (keeper-augmented) load, plus the
    keeper load charged through the gate's own drive.
    """
    total_cap = output_cap + load + keeper_cap
    return (
        gating_resistance(width_factor) * total_cap
        + cell_resistance * keeper_cap
    )


def insert_flh(design: DftDesign,
               config: Optional[FlhConfig] = None) -> "DftDesign":
    """Apply FLH to a plain scan design.

    The netlist is shared (FLH adds no gates); the returned design
    carries the gating records used by the overlay builders.  Gating
    pairs are sized per gate: the smallest candidate width whose delay
    penalty fits the gate's slack against the *original* critical delay.
    """
    if design.style != "scan":
        raise DftError(
            f"FLH must start from a plain scan design, got {design.style!r}"
        )
    if config is None:
        config = FlhConfig()
    return _insert_flh(design, config,
                       timing_state(design.netlist, design.library))


def _insert_flh(design: DftDesign, config: FlhConfig,
                timing: TimingState) -> DftDesign:
    """:func:`insert_flh`, sized from ``timing``.

    ``timing`` must time ``design.netlist``'s gate records (a
    :meth:`TimingState.retimed` state does: it equals a from-scratch
    timing).
    """
    netlist = design.netlist
    library = design.library
    targets = first_level_gates(netlist)
    if not targets:
        raise DftError(f"{netlist.name}: no first-level gates to gate")

    # Slack of each first-level gate on the *base* design.
    slacks = timing.slacks(timing.critical_delay)
    keeper_cap = keeper_load(library, config.keeper_cell)

    gating: Dict[str, FlhGating] = {}
    for name in targets:
        gate = netlist.gate(name)
        cell = library.cell(gate.cell)
        load = load_on_net(netlist, library, name)
        slack = max(slacks.get(name, 0.0), 0.0)
        chosen = config.width_factors[-1]
        critical = True
        for factor in config.width_factors:
            penalty = gating_penalty(
                cell.drive_resistance, cell.output_cap, load,
                keeper_cap, factor,
            )
            if penalty <= slack:
                chosen = factor
                critical = factor != config.width_factors[0]
                break
        gating[name] = FlhGating(name, chosen, critical)

    flh = DftDesign(
        netlist=netlist,
        style="flh",
        library=library,
        scan_chain=design.scan_chain,
        flh_gating=gating,
    )
    # Post-transform self-check: the DFT lint pack must certify the
    # invariants FLH relies on (every first-level gate gated, keeper
    # everywhere, nothing deeper gated, chain coverage intact).
    from ..lint import self_check
    self_check(flh)
    return flh


# ---------------------------------------------------------------------------
# overlays
# ---------------------------------------------------------------------------
def gating_resistance(width_factor: float) -> float:
    """Series resistance added by the gating pair, ohms.

    Only one of header/footer conducts per transition; both are sized to
    the same effective resistance (PMOS carries the PN_RATIO width), so
    the extra resistance is that of one device.
    """
    return units.RSW_PER_WIDTH / (width_factor * units.WMIN_70NM)


def keeper_load(library: Library, keeper_cell: str = "FLH_KEEPER") -> float:
    """Capacitance the keeper hangs on a first-level gate output, farads.

    The sense inverter's gate plus one diffusion of the (off) TG.
    """
    cell = library.cell(keeper_cell)
    sense = [t for t in cell.transistors[:2]]
    gate_cap = sum(t.gate_cap for t in sense)
    tg_diff = cell.transistors[4].diff_cap + cell.transistors[5].diff_cap
    return gate_cap + 0.5 * tg_diff


def keeper_internal_energy(library: Library,
                           keeper_cell: str = "FLH_KEEPER") -> float:
    """Energy per toggle switched inside the keeper, joules.

    In normal mode the sense inverter follows the gate output: its own
    output node (diffusion plus the hold inverter's gate) swings.
    """
    cell = library.cell(keeper_cell)
    sense_diff = sum(t.diff_cap for t in cell.transistors[:2])
    hold_gate = sum(t.gate_cap for t in cell.transistors[2:4])
    return 0.5 * (sense_diff + hold_gate) * units.VDD_70NM ** 2


def flh_delay_overlay(design: DftDesign) -> DelayOverlay:
    """Timing overlay for an FLH design."""
    _require_flh(design)
    library = design.library
    extra_c = keeper_load(library)
    overlay = DelayOverlay()
    for name, record in design.flh_gating.items():
        overlay.extra_resistance[name] = gating_resistance(record.width_factor)
        overlay.extra_load[name] = extra_c
    return overlay


def flh_power_overlay(design: DftDesign,
                      stacking_factor: float = units.STACKING_FACTOR,
                      ) -> PowerOverlay:
    """Power overlay for an FLH design.

    Keeper loading and internal switching are charged per toggle of each
    gated gate; the gated gates' own leakage is credited with the
    stacking factor (the series gating device reduces active leakage of
    idle gates -- the paper's explanation for why large FLH circuits can
    dissipate *less* than the original); keeper leakage is added.
    """
    _require_flh(design)
    library = design.library
    keeper = library.cell(FlhConfig().keeper_cell)
    extra_c = keeper_load(library)
    extra_e = keeper_internal_energy(library)
    overlay = PowerOverlay()
    for name in design.flh_gating:
        overlay.extra_cap[name] = extra_c
        overlay.extra_energy_per_toggle[name] = extra_e
        overlay.leakage_scale[name] = stacking_factor
    overlay.extra_leakage = len(design.flh_gating) * keeper.leakage_power
    return overlay


def flh_extra_area(design: DftDesign) -> float:
    """Transistor active area added by FLH, m^2 (gating pairs + keepers)."""
    _require_flh(design)
    keeper = design.library.cell(FlhConfig().keeper_cell)
    total = len(design.flh_gating) * keeper.area
    for record in design.flh_gating.values():
        header, footer = make_gating_pair(record.width_factor)
        total += header.area + footer.area
    return total


def _require_flh(design: DftDesign) -> None:
    if design.style != "flh" or not design.flh_gating:
        raise DftError("this operation requires an FLH design")

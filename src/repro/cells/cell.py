"""Standard-cell model.

A :class:`Cell` bundles the transistor bag (for area), the lumped
electrical parameters used by STA and power analysis, and the logical
function used by the simulators.  Cells are built by
:mod:`repro.cells.library`; this module only defines the data model and
the derivations shared by all cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

from .. import units
from ..errors import LibraryError
from .transistor import Transistor, total_area, total_width


@dataclass(frozen=True)
class Cell:
    """One library cell.

    Parameters
    ----------
    name:
        Library name, e.g. ``"NAND2_X1"``.
    func:
        Evaluable logical function (see
        :func:`repro.netlist.gate.evaluate_gate`), or ``None`` for cells
        with no simple combinational function (DFF, latches, keepers).
    n_inputs:
        Number of data input pins.
    transistors:
        Every device in the cell; the area metric sums their W*L.
    pull_down_width / pull_up_width:
        Effective widths of the worst-case conducting path to GND / VDD
        (series stacks already divided out).  Used for drive resistance.
    output_diff_width:
        Total drain width hanging on the output node (diffusion cap).
    internal_cap:
        Equivalent internal capacitance switched per output transition.
    intrinsic_delay:
        Fixed parasitic delay added to the RC term.
    clock_cap:
        Capacitance presented to the clock net (sequential cells only).
    seq:
        True for flip-flops and latches.
    """

    name: str
    func: Optional[str]
    n_inputs: int
    transistors: Tuple[Transistor, ...]
    pull_down_width: float
    pull_up_width: float
    output_diff_width: float
    internal_cap: float = 0.0
    intrinsic_delay: float = 2.0 * units.PS
    clock_cap: float = 0.0
    seq: bool = False

    def __post_init__(self) -> None:
        if self.n_inputs < 0:
            raise LibraryError(f"{self.name}: negative pin count")
        if self.pull_down_width < 0 or self.pull_up_width < 0:
            raise LibraryError(f"{self.name}: negative drive width")

    # -- area ---------------------------------------------------------
    @cached_property
    def area(self) -> float:
        """Total transistor active area (the paper's area metric), m^2."""
        return total_area(self.transistors)

    @cached_property
    def total_width(self) -> float:
        """Sum of all channel widths, m."""
        return total_width(self.transistors)

    # -- timing ---------------------------------------------------------
    @cached_property
    def input_cap(self) -> float:
        """Capacitance of one input pin, farads.

        Approximated as the total gate capacitance divided evenly over
        the input pins (clock pin excluded via ``clock_cap``).
        """
        if self.n_inputs == 0:
            return 0.0
        gate_cap = sum(
            t.gate_cap for t in self.transistors if t.role in ("logic",)
        )
        return gate_cap / self.n_inputs

    @cached_property
    def drive_resistance(self) -> float:
        """Effective output resistance, ohms (average of pull-up and
        pull-down paths)."""
        resistances = []
        if self.pull_down_width > 0:
            resistances.append(units.RSW_PER_WIDTH / self.pull_down_width)
        if self.pull_up_width > 0:
            resistances.append(
                units.RSW_PER_WIDTH * units.PN_RATIO / self.pull_up_width
            )
        if not resistances:
            raise LibraryError(f"{self.name}: cell cannot drive anything")
        return sum(resistances) / len(resistances)

    @cached_property
    def output_cap(self) -> float:
        """Parasitic output (diffusion) capacitance, farads."""
        return units.CDIFF_PER_WIDTH * self.output_diff_width

    def delay(self, load_cap: float) -> float:
        """Propagation delay driving ``load_cap`` farads, seconds."""
        return (
            self.intrinsic_delay
            + self.drive_resistance * (self.output_cap + load_cap)
        )

    # -- power ----------------------------------------------------------
    @cached_property
    def leakage_power(self) -> float:
        """Static leakage power at VDD, watts.

        Half the devices are OFF on average; series stacks are credited
        with the standard stacking factor.
        """
        leak = 0.0
        for t in self.transistors:
            leak += 0.5 * t.off_leakage
        return leak * units.VDD_70NM

    def switch_energy(self, load_cap: float) -> float:
        """Energy of one output transition driving ``load_cap``, joules."""
        c_total = self.output_cap + self.internal_cap + load_cap
        return 0.5 * c_total * units.VDD_70NM ** 2

    def clock_energy(self) -> float:
        """Energy drawn from the clock net per cycle (two clock edges)."""
        return self.clock_cap * units.VDD_70NM ** 2

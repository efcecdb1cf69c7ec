"""Dynamic, clock and leakage power models.

Normal-mode power of a (possibly DFT-transformed) design::

    P = P_dynamic + P_clock + P_leakage

* ``P_dynamic`` -- per net: toggles/cycle x (1/2) C V^2 x f, where C is
  the driver's parasitic + internal cap plus the full fanout load
  (including any DFT overlay capacitance such as the FLH keeper).
* ``P_clock``  -- clock pin capacitance of sequential cells, two edges
  per cycle.  Hold-latch control (HOLD) and FLH gating controls are
  static in normal mode and burn nothing here, exactly the paper's
  argument for why FLH's normal-mode overhead is tiny.
* ``P_leakage`` -- per cell from transistor widths; a
  :class:`PowerOverlay` can scale the leakage of supply-gated gates by
  the stacking factor and add the keeper devices' own leakage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional

from .. import units
from ..cells import Library, default_library
from ..errors import SimulationError
from ..netlist import Netlist
from ..timing.delay_model import DelayOverlay, net_loads
from .activity import switching_activity


@dataclass
class PowerOverlay:
    """DFT-induced modifications to the power model.

    Attributes
    ----------
    extra_cap:
        Extra farads switched with each toggle of a net (keeper TG
        diffusion + sense-inverter gate on FLH first-level outputs).
    extra_energy_per_toggle:
        Extra joules per toggle of a net (internal switching of the FLH
        keeper's sense inverter).
    leakage_scale:
        Per-gate multiplicative factor on cell leakage (stacking factor
        for supply-gated first-level gates).
    extra_leakage:
        Additional static watts (keeper + gating devices themselves).
    """

    extra_cap: Dict[str, float] = field(default_factory=dict)
    extra_energy_per_toggle: Dict[str, float] = field(default_factory=dict)
    leakage_scale: Dict[str, float] = field(default_factory=dict)
    extra_leakage: float = 0.0


@dataclass(frozen=True)
class PowerReport:
    """Power breakdown in watts."""

    circuit: str
    dynamic: float
    clock: float
    leakage: float

    @property
    def total(self) -> float:
        """Total normal-mode power."""
        return self.dynamic + self.clock + self.leakage

    def as_row(self) -> Dict[str, float]:
        """Flat dict (microwatts) for tabular reports."""
        return {
            "dynamic_uW": self.dynamic / units.UW,
            "clock_uW": self.clock / units.UW,
            "leakage_uW": self.leakage / units.UW,
            "total_uW": self.total / units.UW,
        }


def dynamic_power(netlist: Netlist, activity: Mapping[str, float],
                  library: Optional[Library] = None,
                  overlay: Optional[PowerOverlay] = None,
                  frequency: float = units.FCLK_NORMAL,
                  gate_filter: Optional[Callable] = None) -> float:
    """Switching power of the logic in watts.

    ``gate_filter(gate) -> bool`` restricts accounting (e.g. to the
    combinational gates only, for Table IV's combinational power).
    """
    if library is None:
        library = default_library()
    loads = net_loads(netlist, library, DelayOverlay(
        extra_load={} if overlay is None else dict(overlay.extra_cap)
    ))
    total = 0.0
    for gate in netlist.gates():
        if gate.is_input:
            continue
        if gate_filter is not None and not gate_filter(gate):
            continue
        alpha = activity.get(gate.name, 0.0)
        if alpha == 0.0:
            continue
        if gate.cell is None:
            raise SimulationError(
                f"{netlist.name}: gate {gate.name!r} is not mapped"
            )
        energy = library.cell(gate.cell).switch_energy(loads[gate.name])
        if overlay is not None:
            energy += overlay.extra_energy_per_toggle.get(gate.name, 0.0)
        total += alpha * energy * frequency
    return total


def clock_power(netlist: Netlist, library: Optional[Library] = None,
                frequency: float = units.FCLK_NORMAL) -> float:
    """Clock-distribution power of the sequential cells in watts."""
    if library is None:
        library = default_library()
    total = 0.0
    for gate in netlist.gates():
        if gate.cell is None:
            continue
        cell = library.cell(gate.cell)
        if cell.seq and cell.clock_cap > 0.0:
            total += cell.clock_energy() * frequency
    return total


def leakage_power(netlist: Netlist, library: Optional[Library] = None,
                  overlay: Optional[PowerOverlay] = None,
                  gate_filter: Optional[Callable] = None) -> float:
    """Static power in watts (overlay applies stacking and keeper leak)."""
    if library is None:
        library = default_library()
    total = 0.0
    for gate in netlist.gates():
        if gate.is_input or gate.cell is None:
            continue
        if gate_filter is not None and not gate_filter(gate):
            continue
        cell = library.cell(gate.cell)
        leak = cell.leakage_power
        if overlay is not None:
            leak *= overlay.leakage_scale.get(gate.name, 1.0)
        total += leak
    if overlay is not None:
        total += overlay.extra_leakage
    return total


def analyze_power(netlist: Netlist, library: Optional[Library] = None,
                  overlay: Optional[PowerOverlay] = None,
                  n_vectors: int = 100, seed: int = 2005,
                  frequency: float = units.FCLK_NORMAL,
                  activity: Optional[Mapping[str, float]] = None,
                  ) -> PowerReport:
    """Full normal-mode power analysis (the paper's Table III metric)."""
    if library is None:
        library = default_library()
    if activity is None:
        activity = switching_activity(netlist, n_vectors=n_vectors, seed=seed)
    return PowerReport(
        circuit=netlist.name,
        dynamic=dynamic_power(netlist, activity, library, overlay, frequency),
        clock=clock_power(netlist, library, frequency),
        leakage=leakage_power(netlist, library, overlay),
    )

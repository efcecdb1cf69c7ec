"""Transistor-level primitives for the cell library.

The paper's area metric is total transistor active area (W x L), so every
cell in :mod:`repro.cells.library` is defined as an explicit bag of
transistors.  Electrical derivations (input capacitance, drive resistance,
leakage) all start from these widths, using the technology constants in
:mod:`repro.units`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple

from .. import units
from ..errors import LibraryError


@dataclass(frozen=True)
class Transistor:
    """A single MOS device.

    Parameters
    ----------
    kind:
        ``"n"`` or ``"p"``.
    width:
        Channel width in metres.
    length:
        Channel length in metres (defaults to the 70 nm node minimum).
    role:
        Free-form tag used by reports: ``"logic"``, ``"gating"``,
        ``"keeper"``, ``"clock"`` ...
    vt:
        Threshold flavour: ``"svt"`` (standard) or ``"hvt"`` (high-Vt,
        an order of magnitude less leaky; used for keeper devices).
    """

    kind: str
    width: float
    length: float = units.LMIN_70NM
    role: str = "logic"
    vt: str = "svt"

    def __post_init__(self) -> None:
        if self.kind not in ("n", "p"):
            raise LibraryError(f"transistor kind must be 'n' or 'p', got {self.kind!r}")
        if self.width <= 0 or self.length <= 0:
            raise LibraryError("transistor dimensions must be positive")
        if self.vt not in ("svt", "hvt"):
            raise LibraryError(f"transistor vt must be 'svt' or 'hvt', got {self.vt!r}")

    @property
    def area(self) -> float:
        """Active area W*L in m^2."""
        return self.width * self.length

    @property
    def gate_cap(self) -> float:
        """Gate capacitance in farads."""
        return units.CGATE_PER_WIDTH * self.width

    @property
    def diff_cap(self) -> float:
        """Drain diffusion capacitance in farads."""
        return units.CDIFF_PER_WIDTH * self.width

    @property
    def on_resistance(self) -> float:
        """Effective switching resistance when ON, in ohms.

        PMOS mobility is folded into :data:`repro.units.PN_RATIO`: a PMOS
        needs ``PN_RATIO`` times the width for the same resistance.
        """
        r = units.RSW_PER_WIDTH / self.width
        if self.kind == "p":
            r *= units.PN_RATIO
        return r

    @property
    def off_leakage(self) -> float:
        """Subthreshold leakage current when OFF with full VDS, in amps."""
        leak = units.ILEAK_PER_WIDTH * self.width
        if self.vt == "hvt":
            leak *= units.HVT_LEAKAGE_RATIO
        return leak


def nmos(width_in_min: float = 1.0, role: str = "logic",
         vt: str = "svt") -> Transistor:
    """NMOS sized in multiples of the minimum width."""
    return Transistor("n", width_in_min * units.WMIN_70NM, role=role, vt=vt)


def pmos(width_in_min: float = 1.0, role: str = "logic",
         vt: str = "svt") -> Transistor:
    """PMOS sized in multiples of the minimum width (before PN ratio)."""
    return Transistor("p", width_in_min * units.WMIN_70NM, role=role, vt=vt)


def total_width(transistors: Iterable[Transistor],
                kind: str | None = None) -> float:
    """Sum of channel widths, optionally filtered by device kind."""
    return sum(
        t.width for t in transistors if kind is None or t.kind == kind
    )


def total_area(transistors: Iterable[Transistor]) -> float:
    """Sum of active areas (the paper's area metric)."""
    return sum(t.area for t in transistors)


def inverter_pair(drive: float = 1.0, role: str = "logic") -> Tuple[Transistor, Transistor]:
    """A (PMOS, NMOS) pair for an inverter of the given drive strength."""
    return (
        pmos(units.PN_RATIO * drive, role=role),
        nmos(drive, role=role),
    )

"""Section IV scan-shift power: the test energy that isolation saves.

Shifts the same random patterns through the plain full-scan chain and
through the FLH and enhanced-scan designs of each circuit, and prices
the combinational switching each lets through.  FLH "is equally
effective in completely eliminating redundant switching power" as
enhanced scan: both remove all combinational shift energy, a share of
the total test energy that grows with the circuit's gate-to-flip-flop
ratio (Gerstendoerfer & Wunderlich cite about 78 %).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..testapp import shift_power_study
from .common import styled_designs
from .report import format_table

DEFAULT_CIRCUITS = ("s298", "s838", "s5378")


@dataclass(frozen=True)
class ShiftPowerResult:
    """One row of shift energies and savings per circuit."""

    rows: List[Dict[str, object]]

    def render(self) -> str:
        """Readable savings table."""
        return format_table(self.rows,
                            title="scan-shift energy saved by isolation")


def run(circuits: Sequence[str] = DEFAULT_CIRCUITS,
        n_patterns: int = 6) -> ShiftPowerResult:
    """Shift ``n_patterns`` random patterns per circuit and design."""
    rows: List[Dict[str, object]] = []
    for name in circuits:
        designs = styled_designs(name)
        flh, enh = shift_power_study(
            designs["scan"], (designs["flh"], designs["enhanced"]),
            n_patterns=n_patterns,
        )
        rows.append(
            {
                "circuit": name,
                "comb_energy_pJ": round(flh.comb_energy_plain * 1e12, 2),
                "chain_energy_pJ": round(flh.chain_energy * 1e12, 2),
                "saving_flh_%": round(flh.saving_fraction * 100, 1),
                "saving_enh_%": round(enh.saving_fraction * 100, 1),
            }
        )
    return ShiftPowerResult(rows=rows)

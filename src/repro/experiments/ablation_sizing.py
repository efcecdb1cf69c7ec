"""Ablation: supply-gating transistor sizing (Section III discussion).

Sweeps a *fixed* gating width factor (disabling the per-gate slack
fitting) and records FLH's area, delay and power overheads at each
point.  Reproduces the paper's design discussion: "Larger-sized sleep
transistors ... can be used to further reduce the delay penalty.  It
increases the area overhead but does not affect the switching power of
the gates."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..dft import (
    FlhConfig,
    design_delay,
    design_power,
    insert_flh,
    total_area,
)
from .common import SEED, styled_designs
from .report import format_table

DEFAULT_FACTORS = (1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0)


@dataclass(frozen=True)
class SizingAblationResult:
    """Overhead curves over the gating width factor."""

    circuit: str
    rows: List[Dict[str, object]]

    @property
    def delay_monotonic_down(self) -> bool:
        """Delay overhead never increases with wider gating devices."""
        values = [row["delay_ovh_%"] for row in self.rows]
        return all(b <= a + 1e-9 for a, b in zip(values, values[1:]))

    @property
    def area_monotonic_up(self) -> bool:
        """Area overhead never decreases with wider gating devices."""
        values = [row["area_ovh_%"] for row in self.rows]
        return all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def render(self) -> str:
        """Readable curve table."""
        lines = [
            f"Gating-transistor sizing ablation ({self.circuit})",
            format_table(self.rows),
            f"delay overhead monotonically falls: "
            f"{'YES' if self.delay_monotonic_down else 'NO'}",
            f"area overhead monotonically grows: "
            f"{'YES' if self.area_monotonic_up else 'NO'}",
        ]
        return "\n".join(lines)


def run(circuit_name: str = "s298",
        factors: Sequence[float] = DEFAULT_FACTORS,
        n_vectors: int = 50) -> SizingAblationResult:
    """Sweep the gating width factor on one circuit."""
    designs = styled_designs(circuit_name)
    scan = designs["scan"]
    base_area = total_area(scan)
    base_delay = design_delay(scan)
    base_power = design_power(scan, n_vectors=n_vectors, seed=SEED).total

    rows: List[Dict[str, object]] = []
    for factor in factors:
        config = FlhConfig(width_factors=(factor,))
        flh = insert_flh(scan, config)
        area = total_area(flh)
        delay = design_delay(flh)
        power = design_power(flh, n_vectors=n_vectors, seed=SEED).total
        rows.append(
            {
                "width_factor": factor,
                "area_ovh_%": round((area - base_area) / base_area * 100, 3),
                "delay_ovh_%": round(
                    (delay - base_delay) / base_delay * 100, 3
                ),
                "power_ovh_%": round(
                    (power - base_power) / base_power * 100, 3
                ),
            }
        )
    return SizingAblationResult(circuit=circuit_name, rows=rows)

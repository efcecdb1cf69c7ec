"""Figure 4: the FLH keeper holds the gated stage's state.

Same gated inverter chain as Fig. 2 but with the Fig. 3 keeper
(cross-coupled minimum inverters behind a sleep-enabled transmission
gate) on OUT1.  Despite the input switching during sleep, OUT1/OUT2/OUT3
stay pinned at their rails for the whole scan window -- "the circuit can
strongly hold its state despite the switching at the input".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from .. import units
from ..spice import HoldReport, flh_hold
from .report import format_table


@dataclass(frozen=True)
class Fig4Result:
    """Measurements plus a waveform table."""

    report: HoldReport
    waveform_rows: List[Dict[str, object]]

    def render(self) -> str:
        """Readable summary plus sampled waveforms."""
        r = self.report
        lines = [
            "Figure 4 -- FLH keeper holding the gated stage",
            f"OUT1 minimum = {r.out1_min:.3f} V (held high)",
            f"OUT2 maximum = {r.out2_max:.3f} V (held low)",
            f"OUT3 minimum = {r.out3_min:.3f} V (held high)",
            f"state held: {'YES' if r.holds() else 'NO'}",
            "",
            format_table(self.waveform_rows, title="sampled waveforms"),
        ]
        return "\n".join(lines)


def run(t_stop: float = 100 * units.NS, samples: int = 12) -> Fig4Result:
    """Run the Fig. 4 experiment and sample the waveforms."""
    report = flh_hold(t_stop=t_stop)
    result = report.result
    rows: List[Dict[str, object]] = []
    n = len(result.times)
    step = max(n // samples, 1)
    for idx in range(0, n, step):
        rows.append(
            {
                "t_ns": round(float(result.times[idx]) / units.NS, 2),
                "OUT1_V": round(float(result.voltages["out1"][idx]), 3),
                "OUT2_V": round(float(result.voltages["out2"][idx]), 3),
                "OUT3_V": round(float(result.voltages["out3"][idx]), 3),
            }
        )
    return Fig4Result(report=report, waveform_rows=rows)

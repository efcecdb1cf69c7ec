"""Figure 2: floating-node decay of a supply-gated first-level gate.

Transient simulation of the gated inverter chain *without* the keeper:
with SLEEP asserted and the input switching high, OUT1 decays through
subthreshold leakage, and once it passes mid-rail the following stages
draw static current and eventually flip -- the failure mode that makes
the FLH keeper necessary.

Paper observation reproduced: OUT1 falls below 600 mV well within the
100 ns scan window (a 1000-bit chain at 1 GHz takes 1 us).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from .. import units
from ..spice import DECAY_DEADLINE, DECAY_LEVEL, DecayReport, floating_decay
from .report import format_table


@dataclass(frozen=True)
class Fig2Result:
    """Measurements plus a waveform table."""

    report: DecayReport
    waveform_rows: List[Dict[str, object]]

    def render(self) -> str:
        """Readable summary plus sampled waveforms."""
        r = self.report
        decay_ns = (
            f"{r.decay_time / units.NS:.2f}" if r.decay_time is not None
            else "never"
        )
        lines = [
            "Figure 2 -- floated first-level output under supply gating",
            f"OUT1 crosses {DECAY_LEVEL:.1f} V after {decay_ns} ns "
            f"(deadline {DECAY_DEADLINE / units.NS:.0f} ns: "
            f"{'MET' if r.decays_within_deadline else 'MISSED'})",
            f"final OUT1 = {r.out1_final:.3f} V, "
            f"final OUT2 = {r.out2_final:.3f} V (state corrupted)",
            f"peak static supply current of stages 2-3 = "
            f"{r.peak_static_current * 1e6:.2f} uA",
            "",
            format_table(self.waveform_rows, title="sampled waveforms"),
        ]
        return "\n".join(lines)


def run(t_stop: float = 60 * units.NS, samples: int = 12) -> Fig2Result:
    """Run the Fig. 2 experiment and sample the waveforms."""
    report = floating_decay(t_stop=t_stop)
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
    return Fig2Result(report=report, waveform_rows=rows)

"""Transistor-level testbenches reproducing the paper's Figs. 2 and 4.

Both benches build the three-inverter chain of Fig. 2 with the first
stage supply-gated (header PMOS to VDD, footer NMOS to GND):

* :func:`floating_decay` -- no keeper.  With SLEEP asserted and the
  input switching high, the floated OUT1 node decays through
  subthreshold leakage; the paper's HSPICE run sees it fall below
  600 mV in under 100 ns, and static current appears in the following
  stages as OUT1 passes mid-rail.
* :func:`flh_hold` -- the Fig. 3 keeper (cross-coupled minimum
  inverters behind a transmission gate, enabled only in sleep) added on
  OUT1.  The chain then holds all three outputs despite input activity
  (Fig. 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    np = None  # type: ignore[assignment]

from .. import units
from .circuit import GND_NODE, VDD_NODE, TransientCircuit, step_wave
from .transient import TransientResult, simulate

#: Gate drive of the chain inverters (unit inverters).
CHAIN_DRIVE = 1.0
#: Supply-gating device width (minimum-width multiples).
GATING_DRIVE = 2.0
#: Keeper device width (true minimum: half the unit width).
KEEPER_DRIVE = 0.5
#: High-Vt shift for keeper devices.
KEEPER_VT_SHIFT = 0.1

#: The paper's observed decay threshold and deadline.
DECAY_LEVEL = 0.6
DECAY_DEADLINE = 100 * units.NS


def build_gated_chain(keeper: bool,
                      sleep_at: float = 1 * units.NS,
                      input_high_at: float = 2 * units.NS,
                      ) -> TransientCircuit:
    """Three-inverter chain with a supply-gated first stage.

    ``IN`` starts at 0 (so OUT1 initializes high), SLEEP asserts at
    ``sleep_at`` and the input switches high at ``input_high_at`` --
    the worst case discussed in the paper (input change held for the
    whole scan period).
    """
    tb = TransientCircuit("flh_chain" if keeper else "gated_chain")

    # Supply gating for stage 1: virtual rails vvdd / vgnd.
    tb.mosfet("header", "p", "vvdd", "sleep", VDD_NODE, GATING_DRIVE)
    tb.mosfet("footer", "n", "vgnd", "sleep_bar", GND_NODE, GATING_DRIVE)
    tb.inverter("inv1", "in", "out1", CHAIN_DRIVE, vdd="vvdd", gnd="vgnd")
    tb.inverter("inv2", "out1", "out2", CHAIN_DRIVE)
    tb.inverter("inv3", "out2", "out3", CHAIN_DRIVE)

    tb.drive("in", step_wave({input_high_at: units.VDD_70NM}, initial=0.0))
    tb.drive("sleep", step_wave({sleep_at: units.VDD_70NM}, initial=0.0))
    tb.drive("sleep_bar", step_wave({sleep_at: 0.0},
                                    initial=units.VDD_70NM))

    # Initial conditions: normal mode settled with IN = 0.
    tb.set_initial("vvdd", units.VDD_70NM)
    tb.set_initial("vgnd", 0.0)
    tb.set_initial("out1", units.VDD_70NM)
    tb.set_initial("out2", 0.0)
    tb.set_initial("out3", units.VDD_70NM)

    if keeper:
        # Fig. 3 keeper: sense inverter, hold inverter, TG back to OUT1.
        tb.inverter("keep_sense", "out1", "keep_x", KEEPER_DRIVE,
                    vt_shift=KEEPER_VT_SHIFT)
        tb.inverter("keep_hold", "keep_x", "keep_y", KEEPER_DRIVE,
                    vt_shift=KEEPER_VT_SHIFT)
        # TG enabled in sleep mode: NMOS gate = sleep, PMOS gate = sleep_bar.
        tb.transmission_gate("keep_tg", "keep_y", "out1",
                             enable="sleep", enable_bar="sleep_bar",
                             drive=KEEPER_DRIVE, vt_shift=KEEPER_VT_SHIFT)
        tb.set_initial("keep_x", 0.0)
        tb.set_initial("keep_y", units.VDD_70NM)
    return tb


@dataclass(frozen=True)
class DecayReport:
    """Fig. 2 measurements."""

    decay_time: Optional[float]         # OUT1 below 600 mV (s), None = never
    out1_final: float
    out2_final: float
    peak_static_current: float          # max Idd of stages 2-3 after sleep
    result: TransientResult

    @property
    def decays_within_deadline(self) -> bool:
        """Paper's observation: decay in < 100 ns."""
        return (
            self.decay_time is not None
            and self.decay_time <= DECAY_DEADLINE
        )


def floating_decay(t_stop: float = 120 * units.NS) -> DecayReport:
    """Run the Fig. 2 experiment (gated stage, no keeper)."""
    tb = build_gated_chain(keeper=False)
    result = simulate(
        tb, t_stop,
        record_every=20 * units.PS,
        measure_current_from=VDD_NODE,
    )
    decay = result.crossing_time("out1", DECAY_LEVEL, falling=True)
    static = 0.0
    if result.supply_current is not None:
        after_sleep = result.times >= 2 * units.NS
        static = float(np.max(np.abs(result.supply_current[after_sleep])))
    return DecayReport(
        decay_time=decay,
        out1_final=float(result.voltages["out1"][-1]),
        out2_final=float(result.voltages["out2"][-1]),
        peak_static_current=static,
        result=result,
    )


@dataclass(frozen=True)
class HoldReport:
    """Fig. 4 measurements."""

    out1_min: float
    out2_max: float
    out3_min: float
    result: TransientResult

    def holds(self, margin: float = 0.1) -> bool:
        """All three outputs stay within ``margin`` x VDD of their rail."""
        vdd = units.VDD_70NM
        return (
            self.out1_min >= (1.0 - margin) * vdd
            and self.out2_max <= margin * vdd
            and self.out3_min >= (1.0 - margin) * vdd
        )


def flh_hold(t_stop: float = 200 * units.NS) -> HoldReport:
    """Run the Fig. 4 experiment (gated stage with FLH keeper)."""
    tb = build_gated_chain(keeper=True)
    result = simulate(tb, t_stop, record_every=20 * units.PS)
    settle = result.times >= 3 * units.NS
    return HoldReport(
        out1_min=float(np.min(result.voltages["out1"][settle])),
        out2_max=float(np.max(result.voltages["out2"][settle])),
        out3_min=float(np.min(result.voltages["out3"][settle])),
        result=result,
    )

"""Adaptive explicit transient solver.

Forward-Euler integration of the free-node voltage ODEs with a step size
that adapts to the fastest node: switching edges integrate at
sub-picosecond steps, while the nanoseconds-long leakage decay of a
floated node (Fig. 2) takes large steps.  Voltages are clamped to a
slightly widened rail range for robustness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    np = None  # type: ignore[assignment]

from .. import units
from ..errors import SimulationError
from .circuit import TransientCircuit


@dataclass
class TransientResult:
    """Waveform record of one transient run."""

    times: np.ndarray
    voltages: Dict[str, np.ndarray]
    supply_current: Optional[np.ndarray] = None

    def at(self, node: str, t: float) -> float:
        """Voltage of ``node`` at time ``t`` (nearest sample)."""
        idx = int(np.searchsorted(self.times, t))
        idx = min(idx, len(self.times) - 1)
        return float(self.voltages[node][idx])

    def crossing_time(self, node: str, level: float,
                      falling: bool = True) -> Optional[float]:
        """First time ``node`` crosses ``level`` (None if never)."""
        wave = self.voltages[node]
        if falling:
            hits = np.nonzero(wave <= level)[0]
        else:
            hits = np.nonzero(wave >= level)[0]
        if len(hits) == 0:
            return None
        return float(self.times[hits[0]])

    def minimum(self, node: str) -> float:
        """Minimum voltage reached by ``node``."""
        return float(np.min(self.voltages[node]))

    def maximum(self, node: str) -> float:
        """Maximum voltage reached by ``node``."""
        return float(np.max(self.voltages[node]))


def simulate(circuit: TransientCircuit, t_stop: float,
             dt_min: float = 0.1 * units.PS,
             dt_max: float = 200 * units.PS,
             dv_target: float = 0.01,
             record_every: float = 1.0 * units.PS,
             measure_current_from: Optional[str] = None) -> TransientResult:
    """Integrate the circuit from 0 to ``t_stop`` seconds.

    Parameters
    ----------
    dv_target:
        Target maximum per-step voltage change (volts); the step size is
        continuously rescaled to hit it.
    record_every:
        Minimum spacing of recorded samples (every accepted step is
        recorded if larger).
    measure_current_from:
        Node name (e.g. ``"vdd"``): record the total current drawn from
        that source, for static-current measurements (Fig. 2's Idd).
    """
    if np is None:
        raise SimulationError(
            "transient simulation requires numpy, which is not importable "
            "in this interpreter"
        )
    circuit.check()
    free = circuit.free_nodes()
    if not free:
        raise SimulationError(f"{circuit.name}: no free nodes to integrate")
    caps = circuit.node_caps()
    index = {node: i for i, node in enumerate(free)}
    cap_vec = np.array([caps[node] for node in free])

    volts = np.array([circuit.initial.get(node, 0.0) for node in free])
    vmax = units.VDD_70NM * 1.05
    vmin = -0.05 * units.VDD_70NM

    times: List[float] = []
    record: List[np.ndarray] = []
    currents: List[float] = []

    t = 0.0
    dt = dt_min
    last_record = -record_every

    def node_voltage(node: str, now: float) -> float:
        source = circuit.sources.get(node)
        if source is not None:
            return source(now)
        return volts[index[node]]

    while t <= t_stop:
        injected = np.zeros(len(free))
        source_current = 0.0
        for device in circuit.devices:
            vd = node_voltage(device.drain, t)
            vg = node_voltage(device.gate, t)
            vs = node_voltage(device.source, t)
            current = device.current(vd, vg, vs)
            if current == 0.0:
                continue
            di = index.get(device.drain)
            si = index.get(device.source)
            if di is not None:
                injected[di] -= current
            if si is not None:
                injected[si] += current
            if measure_current_from is not None:
                if device.drain == measure_current_from:
                    source_current += current
                elif device.source == measure_current_from:
                    source_current -= current

        dv = injected / cap_vec
        peak = float(np.max(np.abs(dv)))
        if peak > 0.0:
            dt = min(max(dv_target / peak, dt_min), dt_max)
        else:
            dt = dt_max

        if t - last_record >= record_every:
            times.append(t)
            record.append(volts.copy())
            if measure_current_from is not None:
                currents.append(source_current)
            last_record = t

        volts = np.clip(volts + dv * dt, vmin, vmax)
        t += dt

    times.append(t)
    record.append(volts.copy())
    if measure_current_from is not None:
        currents.append(source_current)

    data = np.array(record)
    waves = {node: data[:, i] for node, i in index.items()}
    return TransientResult(
        times=np.array(times),
        voltages=waves,
        supply_current=np.array(currents) if currents else None,
    )

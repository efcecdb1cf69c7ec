"""The four benchmark workloads: seeded inputs, timed operations, checks.

Each workload is a class with:

``modules``
    the program modules an operation needs; set-up imports them in a
    fresh interpreter, so start-up work shows in ``setup_s``;
``inputs()``
    the seeded input pool, as ``.bench`` text plus seeds (made once,
    untimed); operation ``k`` uses entry ``k % len(pool)``;
``setup(inputs)``
    loads what the operations share; returns the state they read;
``isolate()``
    drops what an earlier operation left in the program's caches
    (called before every operation, outside the timed region);
``run(state, k, span)``
    operation ``k`` (the timed part); every call into a program layer
    is wrapped in ``span(layer)``;
``check(state, k, out)``
    raises :class:`CheckFailed` when the operation's output is wrong;
``counts(out)``
    per-operation work counts for the per-layer report.

Why these four: the paper reproduction (Tables I-III and Table IV), the
two-phase ATPG and fault simulation on a stress circuit are the system's
end-to-end paths, and they stress different layers.  ``tables`` is
dominated by power and timing analysis, ``fanout`` by the Section V
optimizer's repeated re-timing, ``atpg`` by PODEM and ``fsim`` by the
wide fault-simulation kernel.  The first three rebuild everything from
source text in every operation, with the program's caches emptied
first; ``fsim`` reuses one loaded design, as fault grading does.

An operation is one small circuit, 50 to 250 ms long, and the pool
holds inputs of one size class.  On a shared host the CPU slows down in
spells: with many short, alike operations the median skips the brief
spells, and ``run.py``'s reference unit absorbs the long ones.
"""

from __future__ import annotations

import dataclasses
import math
import random
from typing import Dict

from repro.bench import CATALOG, bench_text, generate, parse_bench
from repro.cells import default_library
from repro.netlist import clear_compile_cache

TABLES_CIRCUIT = "s382"    # a Table I-III circuit (quick-mode list)
TABLES_POOL = 32
POWER_VECTORS = 100        # the paper's random-vector count (Table III)
FANOUT_CIRCUIT = "s838"    # Table IV's high-fanout example
FANOUT_POOL = 16
FANOUT_POWER_VECTORS = 50  # the Table IV driver's setting
DELAY_TOLERANCE = 1e-3     # optimize_fanout's default delay slack
#: The seed draws the random-phase patterns, not the circuit: PODEM
#: effort varies too much between seeded reconstructions for a steady
#: figure, and little between random phases on one circuit.
ATPG_CIRCUIT = "s298"
ATPG_POOL = 16
FSIM_CIRCUIT = "stress2x"  # smallest stress circuit on the wide kernel
FSIM_POOL = 8
FSIM_FAULTS = 48           # two batches of the engine's automatic size
FSIM_PATTERNS = 1024
FSIM_ORACLE_FAULTS = 4


class CheckFailed(Exception):
    """An operation produced a wrong result."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _variants(base: str, seed: int, count: int):
    """Bench texts of seeded reconstructions with ``base``'s statistics.

    The generator seeds itself from the circuit name, so a new name
    gives a new circuit with the same published statistics.
    """
    pool = []
    for j in range(count):
        name = f"{base}_{seed}_{j}"
        spec = dataclasses.replace(CATALOG[base], name=name)
        pool.append((name, bench_text(generate(spec))))
    return pool


def clear_caches() -> None:
    """Empty the program's compile caches, in memory and on disk."""
    clear_compile_cache(disk=True)


class Tables:
    """Tables I-III: map, scan, three holding styles, area/delay/power."""

    modules = ("repro.bench", "repro.synth", "repro.dft")

    def __init__(self, seed: int):
        self.seed = seed

    def inputs(self):
        return _variants(TABLES_CIRCUIT, self.seed, TABLES_POOL)

    def setup(self, inputs):
        return {"library": default_library(), "pool": inputs}

    isolate = staticmethod(clear_caches)

    def run(self, state, k, span):
        from repro.dft import (build_all_styles, compare_area, compare_delay,
                               compare_power)
        from repro.synth import map_netlist

        library = state["library"]
        name, text = state["pool"][k % TABLES_POOL]
        with span("parse"):
            netlist = parse_bench(text, name=name)
        with span("map"):
            mapped = map_netlist(netlist, library)
        with span("dft"):
            designs = build_all_styles(mapped, library, pre_mapped=True)
            area = compare_area(designs)
        with span("sta"):
            delay = compare_delay(designs)
        with span("power"):
            power = compare_power(designs, n_vectors=POWER_VECTORS,
                                  seed=self.seed)
        return designs, area, delay, power

    def check(self, state, k, out):
        from repro.dft import area_breakdown, total_area

        designs, area, delay, power = out
        name = area.circuit
        for cmp in (area, delay, power):
            expect(all(math.isfinite(pct) for pct in
                       (cmp.enhanced_pct, cmp.mux_pct, cmp.flh_pct)),
                   f"{name}: non-finite {cmp}")
        # Every holding style adds devices; a hold latch costs more than
        # a MUX.
        expect(0 < area.mux_pct < area.enhanced_pct and area.flh_pct > 0,
               f"{name}: {area}")
        parts = sum(area_breakdown(designs["flh"]).values())
        whole = total_area(designs["flh"])
        expect(math.isclose(parts, whole, rel_tol=1e-9),
               f"{name}: area breakdown {parts} != total {whole}")
        # The paper's rankings (Tables II and III).  FLH beats enhanced
        # scan's delay on average only, not on every reconstruction, and
        # a critical path that avoids the flip-flops gains no delay.
        expect(0 <= delay.flh_pct <= delay.mux_pct
               and 0 <= delay.enhanced_pct <= delay.mux_pct,
               f"{name}: delay ranking {delay}")
        expect(power.flh_pct < min(power.enhanced_pct, power.mux_pct),
               f"{name}: power ranking {power}")

    def counts(self, out):
        return {}


class Fanout:
    """Table IV: the Section V fanout optimizer under the delay limit."""

    modules = ("repro.bench", "repro.synth", "repro.dft")

    def __init__(self, seed: int):
        self.seed = seed

    def inputs(self):
        return _variants(FANOUT_CIRCUIT, self.seed, FANOUT_POOL)

    def setup(self, inputs):
        return {"library": default_library(), "pool": inputs}

    isolate = staticmethod(clear_caches)

    def run(self, state, k, span):
        from repro.dft import insert_scan, optimize_fanout
        from repro.synth import map_netlist

        library = state["library"]
        name, text = state["pool"][k % FANOUT_POOL]
        with span("parse"):
            netlist = parse_bench(text, name=name)
        with span("map"):
            mapped = map_netlist(netlist, library)
        with span("dft"):
            scan = insert_scan(mapped, library)
        with span("fanout_opt"):
            result = optimize_fanout(
                scan, delay_tolerance=DELAY_TOLERANCE,
                n_vectors=FANOUT_POWER_VECTORS, seed=self.seed)
        return scan, result

    def check(self, state, k, out):
        from repro.netlist import first_level_gates
        from repro.perf.reference import ReferenceLogicSimulator
        from repro.timing import analyze

        library = state["library"]
        scan, result = out
        name = result.circuit
        before = scan.netlist
        after = result.optimized.netlist
        # Full STA is the oracle for the delay limit.
        limit = analyze(before, library).critical_delay \
            * (1.0 + DELAY_TOLERANCE)
        expect(analyze(after, library).critical_delay <= limit * 1.000001,
               f"{name}: optimized design misses the delay limit")
        # Hub flip-flops always leave room to save FLH gating.
        expect(result.ffs_optimized > 0
               and result.first_level_after == len(first_level_gates(after))
               < result.first_level_before,
               f"{name}: first-level gates {result.first_level_before}"
               f" -> {result.first_level_after}")
        expect(0 < result.area_overhead_after_pct
               < result.area_overhead_before_pct,
               f"{name}: FLH area overhead did not shrink")
        _expect_same_logic(before, after, ReferenceLogicSimulator,
                           random.Random(f"{self.seed}/{name}"))

    def counts(self, out):
        return {}


def _expect_same_logic(before, after, simulator, rng) -> None:
    """Buffering must not change any primary or next-state output."""
    expect(list(before.inputs) == list(after.inputs)
           and sorted(before.state_inputs) == sorted(after.state_inputs),
           f"{before.name}: inputs changed")
    mask = (1 << 64) - 1
    words = {net: rng.getrandbits(64)
             for net in list(before.inputs) + list(before.state_inputs)}
    observed = []
    for netlist in (before, after):
        values = simulator(netlist).eval_combinational(dict(words), mask)
        observed.append(
            [values[net] for net in netlist.outputs]
            + [values[gate.fanin[0]]
               for gate in sorted(netlist.dffs(), key=lambda g: g.name)])
    expect(observed[0] == observed[1], f"{before.name}: logic changed")


class Atpg:
    """Two-phase ATPG (random patterns, then PODEM) on a catalog circuit."""

    modules = ("repro.bench", "repro.fault.atpg_flow")

    def __init__(self, seed: int):
        self.seed = seed

    def inputs(self):
        rng = random.Random(self.seed)
        return {"text": bench_text(generate(ATPG_CIRCUIT)),
                "seeds": [rng.randrange(1 << 30) for _ in range(ATPG_POOL)]}

    def setup(self, inputs):
        return inputs

    isolate = staticmethod(clear_caches)

    def run(self, state, k, span):
        from repro.fault.atpg_flow import AtpgFlow, AtpgFlowConfig

        seed = state["seeds"][k % ATPG_POOL]
        with span("parse"):
            netlist = parse_bench(state["text"], name=ATPG_CIRCUIT)
        with span("atpg"):
            result = AtpgFlow(netlist, AtpgFlowConfig(seed=seed)).run()
        return netlist, result

    def check(self, state, k, out):
        from repro.perf.reference import ReferenceFaultSimulator

        netlist, result = out
        name = netlist.name
        expect(len(result.status) == result.n_faults > 0
               and set(result.status.values())
               <= {"detected", "untestable", "aborted"},
               f"{name}: fault statuses")
        detected = result.detected_faults
        expect(bool(detected and result.tests), f"{name}: no tests")
        # Every fault reported detected must be detected by the returned
        # test set, on the dict-based reference simulator.
        ref = ReferenceFaultSimulator(netlist)
        good, mask = ref.good_values(result.tests)
        missed = [f for f in detected if not ref.detect_stuck(f, good, mask)]
        expect(not missed, f"{name}: tests miss {missed[:3]}")

    def counts(self, out):
        _, result = out
        return {"podem_calls": result.podem_calls,
                "backtracks": result.backtracks}


class Fsim:
    """Stuck-at fault simulation on a stress circuit (wide kernel)."""

    modules = ("repro.bench", "repro.fault.fsim", "numpy")

    def __init__(self, seed: int):
        self.seed = seed

    def inputs(self):
        return bench_text(generate(FSIM_CIRCUIT))

    def setup(self, inputs):
        from repro.fault.fsim import FaultSimulator, random_pattern_words
        from repro.fault.models import all_stuck_faults

        netlist = parse_bench(inputs, name=FSIM_CIRCUIT)
        faults = all_stuck_faults(netlist)
        rng = random.Random(self.seed)
        pool = [(rng.sample(faults, FSIM_FAULTS),
                 random_pattern_words(netlist, FSIM_PATTERNS,
                                      seed=rng.randrange(1 << 30)))
                for _ in range(FSIM_POOL)]
        return {"netlist": netlist, "sim": FaultSimulator(netlist),
                "pool": pool, "expected": {}}

    def isolate(self) -> None:
        """Nothing to drop: the loaded design is this workload's state."""

    def run(self, state, k, span):
        faults, words = state["pool"][k % FSIM_POOL]
        with span("fsim"):
            return state["sim"].simulate_stuck_packed(
                faults, words, FSIM_PATTERNS, drop_detected=True)

    def check(self, state, k, out):
        from repro.fault.fsim import FaultSimulator

        faults, words = state["pool"][k % FSIM_POOL]
        expect(set(out.detected) == set(faults), "a fault has no result")
        n_detected = sum(1 for mask in out.detected.values() if mask)
        expect(0 < n_detected < len(faults), f"{n_detected} faults detected")
        # The integer kernels are the oracle for the wide engine; one
        # oracle run per pool entry, compared with every run of it.
        expected = state["expected"].get(k % FSIM_POOL)
        if expected is None:
            sample = faults[::len(faults) // FSIM_ORACLE_FAULTS]
            oracle = FaultSimulator(state["netlist"], backend="int")
            expected = oracle.simulate_stuck_packed(
                sample, words, FSIM_PATTERNS, drop_detected=True).detected
            state["expected"][k % FSIM_POOL] = expected
        for fault, mask in expected.items():
            expect(bool(mask) == bool(out.detected[fault]),
                   f"{fault}: wide and int kernels disagree")

    def counts(self, out):
        return {}


WORKLOADS: Dict[str, type] = {
    "tables": Tables,
    "fanout": Fanout,
    "atpg": Atpg,
    "fsim": Fsim,
}

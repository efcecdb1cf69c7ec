"""``python -m repro bench``: performance harness for the tier-1 kernels.

Times the simulation kernels behind every table experiment -- good
machine logic simulation, stuck-at and transition fault simulation,
the three-valued implication kernel, the two-phase fault-dropping ATPG
flow, static timing analysis, and the table 1-3 quick flows -- and:

* verifies the compiled three-valued kernel against the dict-based
  scalar reference and the two-phase flow's coverage against the naive
  per-fault PODEM path (equal by construction when neither aborts);

* emits ``BENCH_<date>.json`` (per-kernel seconds + metadata) plus an
  aligned text table;
* verifies that the compiled stuck-at fault simulator produces
  **bit-identical** detection masks to the retained reference
  implementation, and records the measured speedup;
* with ``--check-baseline``, compares against the committed baseline
  (``benchmarks/baseline.json``) and fails only on regressions worse
  than ``--threshold`` (default 2x) -- a smoke check loose enough to
  survive machine-to-machine variance, tight enough to catch a kernel
  accidentally falling back to the slow path.

Usage::

    python -m repro bench --quick
    python -m repro bench --quick --check-baseline
    python -m repro bench --output BENCH_today.json
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import random
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence

from ..bench import load_circuit
from ..experiments import table1_area, table2_delay, table3_power
from ..experiments.common import clear_caches, styled_designs
from ..experiments.report import format_table
from ..fault import (
    AtpgFlow,
    AtpgFlowConfig,
    ShardedFaultSimulator,
    all_stuck_faults,
    all_transition_faults,
    collapse_stuck,
    random_pattern_words,
)
from ..fault.fsim import FaultSimulator
from ..fault.podem import X, generate_tests
from ..fault.sharded import usable_cores
from ..netlist import (
    clear_compile_cache,
    compile_cache_info,
    compile_netlist,
)
from ..obs import add_trace_argument, get_recorder, trace_session
from ..power import LogicSimulator
from ..timing import analyze
from .reference import ReferenceFaultSimulator, ReferenceThreeValuedSimulator

#: Committed baseline the smoke check compares against.
DEFAULT_BASELINE = os.path.join("benchmarks", "baseline.json")

#: Quick-mode table circuits (mirrors ``python -m repro quick``).
QUICK_CIRCUITS = ("s298", "s344", "s382")

#: Circuit used for the compiled-vs-reference fault-sim comparison:
#: the largest circuit in the catalog.
FSIM_CIRCUIT = "s38584"


def _random_patterns(netlist, n: int, seed: int) -> List[Dict[str, int]]:
    rng = random.Random(seed)
    nets = list(netlist.inputs) + list(netlist.state_inputs)
    return [
        {net: rng.randint(0, 1) for net in nets} for _ in range(n)
    ]


def _timed(fn: Callable[[], object]) -> Dict[str, object]:
    start = time.perf_counter()
    value = fn()
    return {"seconds": time.perf_counter() - start, "value": value}


def _timed_best(fn: Callable[[], object], repeats: int = 2,
                ) -> Dict[str, object]:
    """Best-of-N timing: damps cache-warmup and scheduler noise for
    kernels whose recorded number gates a speedup floor."""
    best = None
    value = None
    for _ in range(repeats):
        t = _timed(fn)
        if best is None or t["seconds"] < best:
            best = t["seconds"]
            value = t["value"]
    return {"seconds": best, "value": value}


# ----------------------------------------------------------------------
# kernels
# ----------------------------------------------------------------------
def bench_logicsim(quick: bool) -> List[Dict[str, object]]:
    """Good-machine sequential simulation (the Table III inner loop)."""
    name = "s5378"
    n_vectors = 50 if quick else 200
    netlist = load_circuit(name)
    sim = LogicSimulator(netlist)
    vectors = sim.random_vectors(n_vectors)
    t = _timed(lambda: sim.run_sequential(vectors))
    return [{
        "kernel": "logicsim_sequential",
        "circuit": name,
        "n": n_vectors,
        "seconds": t["seconds"],
    }]


def bench_fsim_stuck(quick: bool) -> List[Dict[str, object]]:
    """Compiled vs reference stuck-at fault sim on the largest circuit.

    Hard-asserts that both produce identical detection masks; the
    recorded ``speedup`` is the headline number of the compile pass.
    """
    name = FSIM_CIRCUIT
    netlist = load_circuit(name)
    stride = 160 if quick else 40
    n_patterns = 32 if quick else 64
    faults = all_stuck_faults(netlist)[::stride]
    patterns = _random_patterns(netlist, n_patterns, seed=11)

    compiled_sim = FaultSimulator(netlist)
    t_compiled = _timed(lambda: compiled_sim.simulate_stuck(faults, patterns))
    reference_sim = ReferenceFaultSimulator(netlist)
    t_reference = _timed(
        lambda: reference_sim.simulate_stuck(faults, patterns)
    )

    identical = (
        t_compiled["value"].detected == t_reference["value"].detected
    )
    if not identical:
        raise AssertionError(
            f"{name}: compiled fault sim masks differ from reference"
        )
    speedup = t_reference["seconds"] / max(t_compiled["seconds"], 1e-9)
    return [
        {
            "kernel": "fsim_stuck_compiled",
            "circuit": name,
            "n": len(faults),
            "seconds": t_compiled["seconds"],
        },
        {
            "kernel": "fsim_stuck_reference",
            "circuit": name,
            "n": len(faults),
            "seconds": t_reference["seconds"],
            "compare_only": True,
        },
        {
            "kernel": "fsim_stuck_speedup",
            "circuit": name,
            "n": len(faults),
            "seconds": None,
            "speedup": speedup,
            "identical_masks": identical,
        },
    ]


def _usable_cores() -> int:
    """CPUs this process may actually run on.

    Delegates to :func:`repro.fault.sharded.usable_cores`: the
    CPU-affinity mask clamped by the container's cgroup v1/v2 CPU
    quota, so a throttled CI runner no longer reports phantom cores
    and speedup floors waive themselves honestly.
    """
    return usable_cores()


def bench_fsim_stuck_sharded(quick: bool) -> List[Dict[str, object]]:
    """Sharded worker-pool fault sim vs the serial kernel, same circuit.

    The pool is started (forked, compiled) *outside* the timed region:
    the row measures steady-state shard throughput, which is what the
    ATPG flow's inner loop sees.  Hard-asserts bit-identical detection
    masks and equal coverage against serial.  The speedup floor only
    applies when the host exposes >= ``processes`` usable cores --
    on a smaller machine (or a constrained CI runner) real parallel
    speedup is physically impossible, so the row records the measured
    ratio with ``min_speedup: 0`` and says why in ``note``.
    """
    name = FSIM_CIRCUIT
    netlist = load_circuit(name)
    stride = 24 if quick else 8
    n_patterns = 32 if quick else 64
    processes = 4
    faults = collapse_stuck(netlist, all_stuck_faults(netlist))[::stride]
    words = random_pattern_words(netlist, n_patterns, seed=11)

    serial_sim = FaultSimulator(netlist)
    t_serial = _timed_best(
        lambda: serial_sim.simulate_stuck_packed(faults, words, n_patterns)
    )
    with ShardedFaultSimulator(netlist, processes=processes) as pool:
        t_sharded = _timed_best(
            lambda: pool.simulate_stuck_packed(faults, words, n_patterns)
        )

    serial_result = t_serial["value"]
    sharded_result = t_sharded["value"]
    if sharded_result.detected != serial_result.detected:
        raise AssertionError(
            f"{name}: sharded fault sim masks differ from serial"
        )
    if sharded_result.coverage != serial_result.coverage:
        raise AssertionError(
            f"{name}: sharded coverage {sharded_result.coverage:.6f} != "
            f"serial {serial_result.coverage:.6f}"
        )
    speedup = t_serial["seconds"] / max(t_sharded["seconds"], 1e-9)
    cores = _usable_cores()
    enough_cores = cores >= processes
    return [
        {
            "kernel": "fsim_stuck_sharded",
            "circuit": name,
            "n": len(faults),
            "seconds": t_sharded["seconds"],
            "processes": processes,
        },
        {
            "kernel": "fsim_stuck_sharded_serial",
            "circuit": name,
            "n": len(faults),
            "seconds": t_serial["seconds"],
            "compare_only": True,
        },
        {
            "kernel": "fsim_stuck_sharded_speedup",
            "circuit": name,
            "n": len(faults),
            "seconds": None,
            "speedup": speedup,
            "min_speedup": 2.5 if enough_cores else 0.0,
            "identical_masks": True,
            "equal_coverage": sharded_result.coverage,
            "processes": processes,
            "usable_cores": cores,
            "note": (
                f"speedup {speedup:.2f}x at {processes} workers, "
                "identical masks"
                if enough_cores else
                f"speedup {speedup:.2f}x (floor waived: {cores} usable "
                f"core(s) < {processes} workers), identical masks"
            ),
        },
    ]


def bench_fsim_numpy(quick: bool) -> List[Dict[str, object]]:
    """Numpy wide-batch fault sim vs the packed-int kernels.

    Workload: a synthetic stress circuit well beyond s38584
    (:func:`repro.bench.generator.stress_spec`) under a 4096-pattern
    batch -- the wide-batch regime the numpy backend exists for.  The
    numpy side is the default engine, fault batch size included.  Both
    backends run fault-dropping mode on the same fault sample;
    full-mask mode gets its own (smaller) sample in full runs.
    Hard-asserts bit-identical detection masks; the speedup rows carry
    committed floors (the quick row read 7.64x on a 2-vCPU host).
    When numpy is not importable the rows are waived with
    ``min_speedup: 0`` -- the integer kernels are then the only
    backend, so there is nothing to compare.
    """
    from ..bench.generator import generate, stress_spec
    from ..fault.backends import numpy_available

    scale, depth, stride, floor = (
        (3, 36, 160, 1.8) if quick else (10, 48, 600, 3.0)
    )
    name = f"stress{scale}x"
    if not numpy_available():
        return [{
            "kernel": "fsim_numpy_speedup",
            "circuit": name,
            "n": 0,
            "seconds": None,
            "speedup": 0.0,
            "min_speedup": 0.0,
            "note": "floor waived: numpy not importable, int backend only",
        }]

    n_patterns = 4096
    netlist = generate(stress_spec(scale, depth=depth))
    faults = all_stuck_faults(netlist)[::stride]
    words = random_pattern_words(netlist, n_patterns, seed=11)

    int_sim = FaultSimulator(netlist, backend="int")
    numpy_sim = FaultSimulator(netlist, backend="numpy")

    t_int = _timed_best(
        lambda: int_sim.simulate_stuck_packed(
            faults, words, n_patterns, drop_detected=True)
    )
    t_numpy = _timed_best(
        lambda: numpy_sim.simulate_stuck_packed(
            faults, words, n_patterns, drop_detected=True)
    )
    if t_numpy["value"].detected != t_int["value"].detected:
        raise AssertionError(
            f"{name}: numpy backend drop-mode masks differ from int"
        )
    speedup = t_int["seconds"] / max(t_numpy["seconds"], 1e-9)
    rows: List[Dict[str, object]] = [
        {
            "kernel": "fsim_numpy_drop",
            "circuit": name,
            "n": len(faults),
            "seconds": t_numpy["seconds"],
            "n_patterns": n_patterns,
        },
        {
            "kernel": "fsim_numpy_drop_int",
            "circuit": name,
            "n": len(faults),
            "seconds": t_int["seconds"],
            "compare_only": True,
        },
        {
            "kernel": "fsim_numpy_speedup",
            "circuit": name,
            "n": len(faults),
            "seconds": None,
            "speedup": speedup,
            "min_speedup": floor,
            "identical_masks": True,
            "note": (
                f"speedup {speedup:.2f}x at {n_patterns} patterns "
                f"(drop mode), identical masks"
            ),
        },
    ]
    if not quick:
        full_faults = faults[::2]
        t_int_full = _timed_best(
            lambda: int_sim.simulate_stuck_packed(
                full_faults, words, n_patterns)
        )
        t_numpy_full = _timed_best(
            lambda: numpy_sim.simulate_stuck_packed(
                full_faults, words, n_patterns)
        )
        if t_numpy_full["value"].detected != t_int_full["value"].detected:
            raise AssertionError(
                f"{name}: numpy backend full-mask masks differ from int"
            )
        full_speedup = (
            t_int_full["seconds"] / max(t_numpy_full["seconds"], 1e-9)
        )
        rows.append({
            "kernel": "fsim_numpy_full_speedup",
            "circuit": name,
            "n": len(full_faults),
            "seconds": None,
            "speedup": full_speedup,
            "min_speedup": 2.5,
            "identical_masks": True,
            "note": (
                f"speedup {full_speedup:.2f}x at {n_patterns} patterns "
                f"(full-mask mode), identical masks"
            ),
        })
    return rows


def bench_compile_cache(quick: bool) -> List[Dict[str, object]]:
    """Cold compile vs disk-warm reload of the largest circuit.

    Runs against a private temporary cache root so the measurement
    neither benefits from nor pollutes the user's persistent cache.
    """
    import shutil
    import tempfile

    name = FSIM_CIRCUIT
    netlist = load_circuit(name)
    tmp_root = tempfile.mkdtemp(prefix="repro-bench-cache-")
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = tmp_root
    try:
        clear_compile_cache()
        t_cold = _timed(lambda: compile_netlist(netlist))
        clear_compile_cache()     # drop the memory tier, keep disk
        t_warm = _timed(lambda: compile_netlist(netlist))
        info = compile_cache_info()
        if info["disk_hits"] < 1:
            raise AssertionError(
                f"{name}: warm compile did not hit the disk cache "
                f"({info})"
            )
        if t_warm["value"].key != t_cold["value"].key:
            raise AssertionError(
                f"{name}: disk-loaded compile key differs from cold"
            )
    finally:
        if previous is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = previous
        clear_compile_cache()     # detach from the temp root
        shutil.rmtree(tmp_root, ignore_errors=True)
    return [
        {
            "kernel": "compile_cold",
            "circuit": name,
            "n": 1,
            "seconds": t_cold["seconds"],
        },
        {
            "kernel": "compile_disk_warm",
            "circuit": name,
            "n": 1,
            "seconds": t_warm["seconds"],
            "disk_hits": info["disk_hits"],
        },
    ]


def bench_fsim_transition(quick: bool) -> List[Dict[str, object]]:
    """Transition fault sim over random (V1, V2) pairs."""
    name = "s5378"
    netlist = load_circuit(name)
    stride = 40 if quick else 10
    n_pairs = 16 if quick else 48
    faults = all_transition_faults(netlist)[::stride]
    rng = random.Random(13)
    nets = list(netlist.inputs) + list(netlist.state_inputs)
    pairs = [
        (
            {net: rng.randint(0, 1) for net in nets},
            {net: rng.randint(0, 1) for net in nets},
        )
        for _ in range(n_pairs)
    ]
    sim = FaultSimulator(netlist)
    t = _timed(lambda: sim.simulate_transition(faults, pairs))
    return [{
        "kernel": "fsim_transition",
        "circuit": name,
        "n": len(faults),
        "seconds": t["seconds"],
    }]


def bench_eval3(quick: bool) -> List[Dict[str, object]]:
    """Compiled two-word three-valued evaluation vs the dict reference.

    Packs random 0/1/X input assignments into the two-word-per-net
    encoding, evaluates all patterns bit-parallel in one
    :meth:`~repro.netlist.CompiledNetlist.eval3_into` pass, and checks
    every net of every pattern against scalar whole-core dict
    re-simulation (``ReferenceThreeValuedSimulator``).
    """
    name = "s5378"
    netlist = load_circuit(name)
    compiled = compile_netlist(netlist)
    n_patterns = 16 if quick else 32
    rng = random.Random(17)
    core_inputs = compiled.names[:compiled.n_prefix]
    assignments = [
        {net: rng.choice((0, 1, X)) for net in core_inputs}
        for _ in range(n_patterns)
    ]

    def run_compiled():
        v0 = compiled.new_values()
        v1 = compiled.new_values()
        mask = (1 << n_patterns) - 1
        for i, assignment in enumerate(assignments):
            bit = 1 << i
            for slot, net in enumerate(core_inputs):
                v = assignment[net]
                if v == 0:
                    v0[slot] |= bit
                elif v == 1:
                    v1[slot] |= bit
        compiled.eval3_into(v0, v1, mask)
        return v0, v1

    t_compiled = _timed(run_compiled)
    reference = ReferenceThreeValuedSimulator(netlist)
    t_reference = _timed(
        lambda: [reference.simulate(a) for a in assignments]
    )

    v0, v1 = t_compiled["value"]
    for i, ref_values in enumerate(t_reference["value"]):
        bit = 1 << i
        for slot, net in enumerate(compiled.names):
            got = 0 if v0[slot] & bit else (1 if v1[slot] & bit else X)
            if got != ref_values[net]:
                raise AssertionError(
                    f"{name}: eval3 mismatch at net {net!r}, pattern {i}: "
                    f"compiled {got} != reference {ref_values[net]}"
                )
    speedup = t_reference["seconds"] / max(t_compiled["seconds"], 1e-9)
    return [
        {
            "kernel": "eval3_compiled",
            "circuit": name,
            "n": n_patterns,
            "seconds": t_compiled["seconds"],
        },
        {
            "kernel": "eval3_reference",
            "circuit": name,
            "n": n_patterns,
            "seconds": t_reference["seconds"],
            "compare_only": True,
        },
        {
            "kernel": "eval3_speedup",
            "circuit": name,
            "n": n_patterns,
            "seconds": None,
            "speedup": speedup,
            "identical_values": True,
        },
    ]


def bench_atpg_flow(quick: bool) -> List[Dict[str, object]]:
    """Two-phase fault-dropping pipeline vs naive per-fault PODEM.

    Workload: the s5378 faults naive PODEM detects without aborting at
    the bench backtrack limit -- the realistic detectable-fault ATPG
    population.  Untestable and abort-bound faults cost the identical
    search on both paths, so including them only dilutes the
    pipeline-structure comparison (and makes coverage equality hinge on
    abort luck).  Hard-asserts equal final coverage; the recorded
    speedup row carries its own ``min_speedup`` floor of 5x.
    """
    name = "s5378"
    netlist = load_circuit(name)
    stride = 12 if quick else 8
    backtrack_limit = 60
    faults = collapse_stuck(netlist, all_stuck_faults(netlist))[::stride]
    prefilter = generate_tests(netlist, faults,
                               backtrack_limit=backtrack_limit)
    workload = [r.fault for r in prefilter if r.detected]

    t_naive = _timed_best(
        lambda: generate_tests(netlist, workload,
                               backtrack_limit=backtrack_limit)
    )
    config = AtpgFlowConfig(n_random_patterns=2048 if quick else 1024,
                            batch_size=256,
                            max_idle_batches=4 if quick else 3,
                            backtrack_limit=backtrack_limit)
    t_flow = _timed_best(lambda: AtpgFlow(netlist, config).run(workload))

    naive = t_naive["value"]
    naive_coverage = (
        sum(1 for r in naive if r.detected) / len(workload)
        if workload else 0.0
    )
    flow_coverage = t_flow["value"].coverage
    if abs(naive_coverage - flow_coverage) > 1e-12:
        raise AssertionError(
            f"{name}: flow coverage {flow_coverage:.4f} != naive "
            f"coverage {naive_coverage:.4f}"
        )
    speedup = t_naive["seconds"] / max(t_flow["seconds"], 1e-9)
    return [
        {
            "kernel": "atpg_flow",
            "circuit": name,
            "n": len(workload),
            "seconds": t_flow["seconds"],
        },
        {
            "kernel": "atpg_naive",
            "circuit": name,
            "n": len(workload),
            "seconds": t_naive["seconds"],
            "compare_only": True,
        },
        {
            "kernel": "atpg_flow_speedup",
            "circuit": name,
            "n": len(workload),
            "seconds": None,
            "speedup": speedup,
            "min_speedup": 5.0,
            "equal_coverage": flow_coverage,
        },
    ]


def bench_atpg_parallel_podem(quick: bool) -> List[Dict[str, object]]:
    """Parallel speculative PODEM phase 2 vs the serial walk.

    Workload: the s5378 *hard remainder* -- the collapsed (strided)
    fault list minus everything 256 random patterns detect -- run
    through the flow with the random phase disabled, so the timed
    region is exactly the phase-2 PODEM walk the parallel coordinator
    accelerates.  Hard-asserts equal coverage AND byte-identical
    artifacts (test list, status map, summary) between ``processes=4``
    and ``processes=1`` -- the determinism contract, not a tolerance.
    The 2.5x floor applies only when the host exposes >= 4 usable
    cores (affinity and cgroup quota both); below that the row records
    the measured ratio with ``min_speedup: 0`` and says why.
    """
    name = "s5378"
    netlist = load_circuit(name)
    stride = 24 if quick else 12
    backtrack_limit = 60
    processes = 4
    faults = collapse_stuck(netlist, all_stuck_faults(netlist))[::stride]
    words = random_pattern_words(netlist, 256, seed=11)
    prefilter = FaultSimulator(netlist, backend="int").simulate_stuck_packed(
        faults, words, 256, drop_detected=True
    )
    hard = [f for f in faults if not prefilter.detected.get(f)]

    config = AtpgFlowConfig(n_random_patterns=0,
                            backtrack_limit=backtrack_limit,
                            backend="int")
    t_serial = _timed_best(lambda: AtpgFlow(netlist, config).run(hard))
    parallel_config = AtpgFlowConfig(n_random_patterns=0,
                                     backtrack_limit=backtrack_limit,
                                     backend="int", processes=processes)
    t_parallel = _timed_best(
        lambda: AtpgFlow(netlist, parallel_config).run(hard)
    )

    serial = t_serial["value"]
    parallel = t_parallel["value"]
    identical = (
        parallel.tests == serial.tests
        and list(parallel.status.items()) == list(serial.status.items())
        and list(parallel.detected_via.items())
        == list(serial.detected_via.items())
        and list(parallel.untestable_via.items())
        == list(serial.untestable_via.items())
        and parallel.summary() == serial.summary()
    )
    if not identical:
        raise AssertionError(
            f"{name}: parallel PODEM artifacts differ from serial "
            f"(parallel {parallel.summary()} vs serial {serial.summary()})"
        )
    if parallel.coverage != serial.coverage:
        raise AssertionError(
            f"{name}: parallel coverage {parallel.coverage:.6f} != "
            f"serial {serial.coverage:.6f}"
        )
    speedup = t_serial["seconds"] / max(t_parallel["seconds"], 1e-9)
    cores = _usable_cores()
    enough_cores = cores >= processes
    return [
        {
            "kernel": "atpg_parallel_podem",
            "circuit": name,
            "n": len(hard),
            "seconds": t_parallel["seconds"],
            "processes": processes,
        },
        {
            "kernel": "atpg_serial_podem",
            "circuit": name,
            "n": len(hard),
            "seconds": t_serial["seconds"],
            "compare_only": True,
        },
        {
            "kernel": "atpg_parallel_podem_speedup",
            "circuit": name,
            "n": len(hard),
            "seconds": None,
            "speedup": speedup,
            "min_speedup": 2.5 if enough_cores else 0.0,
            "identical_artifacts": True,
            "equal_coverage": parallel.coverage,
            "processes": processes,
            "usable_cores": cores,
            "note": (
                f"speedup {speedup:.2f}x at {processes} workers, "
                "byte-identical artifacts"
                if enough_cores else
                f"speedup {speedup:.2f}x (floor waived: {cores} usable "
                f"core(s) < {processes} workers), byte-identical "
                f"artifacts"
            ),
        },
    ]


def bench_atpg_analysis(quick: bool) -> List[Dict[str, object]]:
    """Static-analysis-assisted ATPG vs the plain two-phase flow.

    Workload: a strided slice of the s5378 collapsed fault list,
    restricted to (a) faults both the unguided and the SCOAP-guided
    PODEM detect without aborting -- where guidance can only change
    *effort*, not outcome -- plus (b) the statically-proven-untestable
    faults, which no flow can ever detect (the prover is exhaustively
    cross-checked in the test suite), so equal final coverage holds by
    construction rather than by abort luck.  The baseline flow burns
    backtracks (or aborts) re-discovering (b) fault by fault; the
    analysis flow prunes them upfront and spends SCOAP-guided searches
    on the rest.  The recorded row gates the *effort* ratio -- total
    PODEM backtracks plus aborted faults -- with a committed 3x floor
    (measured ~8-14x).
    """
    from dataclasses import replace

    from ..analysis import TestabilityAnalyzer
    from ..fault.podem import Podem

    name = "s5378"
    netlist = load_circuit(name)
    stride = 12 if quick else 8
    backtrack_limit = 60
    faults = collapse_stuck(netlist, all_stuck_faults(netlist))[::stride]

    analyzer = TestabilityAnalyzer(netlist, style="scan")
    static_untestable = analyzer.untestable_stuck()
    unguided = Podem(netlist, backtrack_limit)
    guided = Podem(netlist, backtrack_limit, guidance=analyzer.scores)
    workload = []
    n_untestable = 0
    for fault in faults:
        if fault in static_untestable:
            workload.append(fault)
            n_untestable += 1
        elif (unguided.generate(fault).detected
              and guided.generate(fault).detected):
            workload.append(fault)

    config = AtpgFlowConfig(n_random_patterns=2048 if quick else 1024,
                            batch_size=256,
                            max_idle_batches=4 if quick else 3,
                            backtrack_limit=backtrack_limit)
    t_plain = _timed_best(lambda: AtpgFlow(netlist, config).run(workload))
    config_analysis = replace(config, use_analysis=True)
    t_analysis = _timed_best(
        lambda: AtpgFlow(netlist, config_analysis).run(workload)
    )

    plain = t_plain["value"].summary()
    assisted = t_analysis["value"].summary()
    if plain["coverage"] != assisted["coverage"]:
        raise AssertionError(
            f"{name}: analysis flow coverage {assisted['coverage']:.4f} "
            f"!= plain flow coverage {plain['coverage']:.4f}"
        )
    effort_plain = plain["backtracks"] + plain["aborted"]
    effort_assisted = assisted["backtracks"] + assisted["aborted"]
    reduction = effort_plain / max(effort_assisted, 1)
    return [
        {
            "kernel": "atpg_analysis_flow",
            "circuit": name,
            "n": len(workload),
            "seconds": t_analysis["seconds"],
        },
        {
            "kernel": "atpg_plain_flow",
            "circuit": name,
            "n": len(workload),
            "seconds": t_plain["seconds"],
            "compare_only": True,
        },
        {
            "kernel": "atpg_analysis_effort",
            "circuit": name,
            "n": len(workload),
            "seconds": None,
            "speedup": reduction,
            "min_speedup": 3.0,
            "equal_coverage": assisted["coverage"],
            "note": (
                f"backtracks+aborted {effort_plain} -> {effort_assisted} "
                f"({n_untestable} statically-pruned untestable, "
                f"{assisted['podem_calls']} vs {plain['podem_calls']} "
                f"PODEM calls)"
            ),
        },
    ]


def bench_sta(quick: bool) -> List[Dict[str, object]]:
    """STA arrival propagation over a mapped scan design."""
    name = "s382" if quick else "s5378"
    design = styled_designs(name)["scan"]
    n_runs = 20
    def run_sta():
        for _ in range(n_runs):
            analyze(design.netlist, design.library)
    t = _timed(run_sta)
    return [{
        "kernel": "sta_analyze",
        "circuit": name,
        "n": n_runs,
        "seconds": t["seconds"],
    }]


def bench_tables(quick: bool) -> List[Dict[str, object]]:
    """The table 1-3 quick experiment flows, end to end."""
    circuits = QUICK_CIRCUITS
    rows: List[Dict[str, object]] = []
    t = _timed(lambda: table1_area.run(circuits=circuits))
    rows.append({"kernel": "table1_quick", "circuit": "+".join(circuits),
                 "n": len(circuits), "seconds": t["seconds"]})
    t = _timed(lambda: table2_delay.run(circuits=circuits))
    rows.append({"kernel": "table2_quick", "circuit": "+".join(circuits),
                 "n": len(circuits), "seconds": t["seconds"]})
    t = _timed(lambda: table3_power.run(circuits=circuits, n_vectors=40))
    rows.append({"kernel": "table3_quick", "circuit": "+".join(circuits),
                 "n": len(circuits), "seconds": t["seconds"]})
    return rows


KERNEL_GROUPS = (
    bench_logicsim,
    bench_fsim_stuck,
    bench_fsim_stuck_sharded,
    bench_fsim_numpy,
    bench_compile_cache,
    bench_fsim_transition,
    bench_eval3,
    bench_atpg_flow,
    bench_atpg_parallel_podem,
    bench_atpg_analysis,
    bench_sta,
    bench_tables,
)


# ----------------------------------------------------------------------
# harness
# ----------------------------------------------------------------------
def run_bench(quick: bool = True) -> Dict[str, object]:
    """Run every kernel group; returns the report dict."""
    clear_caches()
    rec = get_recorder()
    rows: List[Dict[str, object]] = []
    for group in KERNEL_GROUPS:
        with rec.span("bench.group", cat="bench", group=group.__name__,
                      quick=quick):
            rows.extend(group(quick))
    return {
        "schema": 1,
        "date": datetime.date.today().isoformat(),
        "quick": quick,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "usable_cores": _usable_cores(),
        "kernels": rows,
        "compile_cache": compile_cache_info(),
    }


def render_report(report: Dict[str, object]) -> str:
    """Aligned text table of one bench run."""
    rows = []
    for row in report["kernels"]:
        rows.append({
            "kernel": row["kernel"],
            "circuit": row["circuit"],
            "n": row["n"],
            "seconds": (
                "-" if row.get("seconds") is None
                else f"{row['seconds']:.4f}"
            ),
            "note": (
                row["note"] if "note" in row else
                f"speedup {row['speedup']:.2f}x, identical results"
                if "speedup" in row else ""
            ),
        })
    title = (
        f"repro bench ({'quick' if report['quick'] else 'full'}) -- "
        f"{report['date']}, python {report['python']}"
    )
    return format_table(rows, title=title)


def check_against_baseline(report: Dict[str, object],
                           baseline_path: str,
                           threshold: float = 2.0,
                           min_speedup: float = 2.5) -> List[str]:
    """Regression check; returns a list of failure messages (empty = ok).

    A kernel fails if it is more than ``threshold`` times slower than
    the committed baseline; a speedup row (compiled vs reference, flow
    vs naive) fails if it drops below its floor -- the row's own
    ``min_speedup`` when present, else the harness-wide ``min_speedup``
    (machine-independent, since both sides run on the same host).
    """
    failures: List[str] = []
    try:
        with open(baseline_path, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
    except FileNotFoundError:
        return [f"baseline file not found: {baseline_path}"]
    base_seconds = {
        row["kernel"]: row.get("seconds")
        for row in baseline.get("kernels", [])
    }
    for row in report["kernels"]:
        name = row["kernel"]
        if "speedup" in row:
            required = row.get("min_speedup", min_speedup)
            if row["speedup"] < required:
                failures.append(
                    f"{name}: speedup {row['speedup']:.2f}x"
                    f" < required {required:.1f}x"
                )
            continue
        if row.get("compare_only"):
            continue
        base = base_seconds.get(name)
        if base is None or row.get("seconds") is None:
            continue
        ratio = row["seconds"] / max(base, 1e-9)
        if ratio > threshold:
            failures.append(
                f"{name}: {row['seconds']:.4f}s is {ratio:.2f}x the "
                f"baseline {base:.4f}s (threshold {threshold:.1f}x)"
            )
    return failures


def bench_main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point for ``python -m repro bench``."""
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Time the tier-1 simulation kernels and experiment "
                    "flows; optionally compare against the committed "
                    "baseline.",
    )
    parser.add_argument("--quick", action="store_true",
                        help="smaller fault samples / vector counts "
                             "(CI smoke configuration)")
    parser.add_argument("--output", default=None,
                        help="output JSON path (default BENCH_<date>.json)")
    parser.add_argument("--check-baseline", action="store_true",
                        help="compare against the committed baseline and "
                             "exit non-zero on a >threshold regression")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE,
                        help=f"baseline JSON path (default {DEFAULT_BASELINE})")
    parser.add_argument("--threshold", type=float, default=2.0,
                        help="failure threshold as a slowdown ratio "
                             "(default 2.0)")
    parser.add_argument("--min-speedup", type=float, default=2.5,
                        help="minimum compiled/reference fault-sim speedup "
                             "(default 2.5)")
    parser.add_argument("--write-baseline", action="store_true",
                        help="also (re)write the baseline file from this run")
    add_trace_argument(parser)
    args = parser.parse_args(list(argv) if argv is not None else None)

    manifest_extra: Dict[str, object] = {"quick": args.quick}
    with trace_session(args.trace, "bench", argv=list(argv or []),
                       extra=manifest_extra):
        report = run_bench(quick=args.quick)
        manifest_extra["kernels"] = [
            {k: row.get(k) for k in ("kernel", "seconds", "speedup")
             if k in row}
            for row in report["kernels"]
        ]
    print(render_report(report))

    output = args.output or f"BENCH_{report['date']}.json"
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"\n[written to {output}]")

    if args.write_baseline:
        with open(args.baseline, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"[baseline refreshed at {args.baseline}]")

    if args.check_baseline:
        failures = check_against_baseline(
            report, args.baseline,
            threshold=args.threshold, min_speedup=args.min_speedup,
        )
        if failures:
            print("\nBASELINE CHECK FAILED:", file=sys.stderr)
            for failure in failures:
                print(f"  - {failure}", file=sys.stderr)
            return 1
        print(f"\nbaseline check ok (threshold {args.threshold:.1f}x, "
              f"min speedup {args.min_speedup:.1f}x)")
    return 0

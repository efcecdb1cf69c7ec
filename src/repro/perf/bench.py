"""``python -m repro bench``: each fast kernel against its oracle, same host.

The paper's coverage and two-pattern results rest on fast kernels --
fault simulation, three-valued implication, two-phase ATPG -- each
with a slower oracle kept beside it.  :data:`KERNELS` pairs every fast
path with its oracle, and :func:`run_kernel` times the two in
alternating pairs on this host:

* every pair's outputs go through the kernel's identity check, and a
  mismatch raises naming the kernel;
* the report gives the median times and the median and quartiles of
  the paired ratio ``oracle / fast``;
* a kernel fails when even its upper-quartile ratio is below its
  floor, so one noisy pair cannot fail it.  Each floor sits above a
  third of the kernel's upper quartile as measured on a 2-vCPU host
  (docs/performance.md), so a fast path that got 3x slower fails.

End-to-end wall time and memory belong to perfbench (``BENCHMARK.json``).

Usage::

    python -m repro bench                       # exit 1 on any failure
    python -m repro bench --output bench.json   # also write the report
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import random
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass
from types import SimpleNamespace
from typing import (
    Any,
    Callable,
    ContextManager,
    Dict,
    List,
    Optional,
    Sequence,
)

from ..bench import load_circuit
from ..bench.generator import generate, stress_spec
from ..fault import (
    AtpgFlow,
    AtpgFlowConfig,
    FaultSimulator,
    all_stuck_faults,
    collapse_stuck,
    random_pattern_words,
)
from ..fault.podem import X, generate_tests
from ..netlist import clear_compile_cache, compile_cache_info, compile_netlist
from ..obs import add_trace_argument, get_recorder, trace_session
from .reference import ReferenceFaultSimulator, ReferenceThreeValuedSimulator

#: Every kernel runs at least this many fast/oracle pairs ...
MIN_PAIRS = 5
#: ... and keeps pairing until its oracle side has been timed this long.
MIN_ORACLE_SECONDS = 1.0

#: PODEM backtrack limit of both sides of the ATPG kernel.
BACKTRACK_LIMIT = 60


@dataclass(frozen=True)
class Kernel:
    """A fast path, the oracle it must match, and the speedup it keeps.

    ``setup`` returns a context manager whose value (untimed) is handed
    to ``fast`` and ``oracle``; ``check(state, fast_out, oracle_out)``
    returns ``None`` when the outputs agree, else what differs.
    """

    name: str
    setup: Callable[[], ContextManager[Any]]
    fast: Callable[[Any], Any]
    oracle: Callable[[Any], Any]
    check: Callable[[Any, Any, Any], Optional[str]]
    floor: float


# ----------------------------------------------------------------------
# kernels
# ----------------------------------------------------------------------
def _random_patterns(netlist, n: int, seed: int) -> List[Dict[str, int]]:
    rng = random.Random(seed)
    nets = list(netlist.inputs) + list(netlist.state_inputs)
    return [{net: rng.randint(0, 1) for net in nets} for _ in range(n)]


def _same_masks(state, fast, oracle) -> Optional[str]:
    if fast.detected != oracle.detected:
        return "detection masks differ"
    return None


@contextmanager
def _fsim_stuck():
    """s38584, every 160th stuck fault x 32 patterns."""
    netlist = load_circuit("s38584")
    yield SimpleNamespace(
        sim=FaultSimulator(netlist),
        reference=ReferenceFaultSimulator(netlist),
        faults=all_stuck_faults(netlist)[::160],
        patterns=_random_patterns(netlist, 32, seed=11),
    )


@contextmanager
def _fsim_numpy():
    """stress3x, every 160th stuck fault x 4096 patterns, drop mode."""
    netlist = generate(stress_spec(3, depth=36))
    state = SimpleNamespace(
        numpy=FaultSimulator(netlist, backend="numpy"),
        int=FaultSimulator(netlist, backend="int"),
        faults=all_stuck_faults(netlist)[::160],
        words=random_pattern_words(netlist, 4096, seed=11),
        n=4096,
    )
    # Build the wide engine's level plan before the first timed call.
    state.numpy.simulate_stuck_packed(state.faults[:1], state.words, state.n)
    yield state


def _fsim_packed(sim, state, **kwargs):
    return sim.simulate_stuck_packed(state.faults, state.words, state.n,
                                     **kwargs)


@contextmanager
def _compile_cache():
    """s38584 under a private cache root, its disk tier already warm."""
    previous = os.environ.get("REPRO_CACHE_DIR")
    root = tempfile.mkdtemp(prefix="repro-bench-cache-")
    os.environ["REPRO_CACHE_DIR"] = root
    try:
        netlist = load_circuit("s38584")
        clear_compile_cache(disk=True)
        compile_netlist(netlist)
        yield netlist
    finally:
        if previous is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = previous
        clear_compile_cache()      # detach the memory tier from the root
        shutil.rmtree(root, ignore_errors=True)


def _cold_compile(netlist):
    clear_compile_cache(disk=True)
    return compile_netlist(netlist)


def _disk_warm_compile(netlist):
    clear_compile_cache()          # drop the memory tier, keep disk
    return compile_netlist(netlist), compile_cache_info()["disk_hits"]


def _same_compile(netlist, fast, oracle) -> Optional[str]:
    warm, disk_hits = fast
    if disk_hits < 1:
        return "warm compile did not hit the disk cache"
    if warm.key != oracle.key:
        return "disk-loaded compile key differs from cold"
    return None


@contextmanager
def _eval3():
    """s5378, 16 random 0/1/X core-input assignments, also packed two
    words per net for the compiled kernel."""
    netlist = load_circuit("s5378")
    compiled = compile_netlist(netlist)
    rng = random.Random(17)
    inputs = compiled.names[:compiled.n_prefix]
    assignments = [{net: rng.choice((0, 1, X)) for net in inputs}
                   for _ in range(16)]
    v0 = compiled.new_values()
    v1 = compiled.new_values()
    for i, assignment in enumerate(assignments):
        for slot, net in enumerate(inputs):
            if assignment[net] == 0:
                v0[slot] |= 1 << i
            elif assignment[net] == 1:
                v1[slot] |= 1 << i
    yield SimpleNamespace(
        compiled=compiled,
        reference=ReferenceThreeValuedSimulator(netlist),
        assignments=assignments,
        packed=(v0, v1),
    )


def _eval3_into(state):
    v0, v1 = (list(words) for words in state.packed)
    state.compiled.eval3_into(v0, v1, (1 << len(state.assignments)) - 1)
    return v0, v1


def _same_eval3(state, fast, oracle) -> Optional[str]:
    v0, v1 = fast
    for i, values in enumerate(oracle):
        bit = 1 << i
        for slot, net in enumerate(state.compiled.names):
            got = 0 if v0[slot] & bit else (1 if v1[slot] & bit else X)
            if got != values[net]:
                return (f"net {net!r}, pattern {i}: compiled {got} != "
                        f"reference {values[net]}")
    return None


@contextmanager
def _atpg_flow():
    """s5378, the faults of every 12th collapsed one that naive PODEM
    detects without aborting: untestable and abort-bound faults cost
    the same search on both paths, and would make equal coverage hinge
    on abort luck."""
    netlist = load_circuit("s5378")
    faults = collapse_stuck(netlist, all_stuck_faults(netlist))[::12]
    prefilter = generate_tests(netlist, faults,
                               backtrack_limit=BACKTRACK_LIMIT)
    yield SimpleNamespace(
        netlist=netlist,
        workload=[r.fault for r in prefilter if r.detected],
        config=AtpgFlowConfig(n_random_patterns=2048, batch_size=256,
                              max_idle_batches=4,
                              backtrack_limit=BACKTRACK_LIMIT),
    )


def _same_coverage(state, flow, naive) -> Optional[str]:
    naive_coverage = sum(1 for r in naive if r.detected) / len(state.workload)
    if abs(naive_coverage - flow.coverage) > 1e-12:
        return (f"flow coverage {flow.coverage:.4f} != naive coverage "
                f"{naive_coverage:.4f}")
    return None


KERNELS = (
    Kernel("fsim_stuck", _fsim_stuck,
           fast=lambda s: s.sim.simulate_stuck(s.faults, s.patterns),
           oracle=lambda s: s.reference.simulate_stuck(s.faults, s.patterns),
           check=_same_masks, floor=15.0),
    # Fails since the int kernel became event-driven; ROADMAP item 4
    # decides between re-deriving `select_backend` and deleting numpy.
    Kernel("fsim_numpy", _fsim_numpy,
           fast=lambda s: _fsim_packed(s.numpy, s, drop_detected=True),
           oracle=lambda s: _fsim_packed(s.int, s, drop_detected=True),
           check=_same_masks, floor=1.8),
    Kernel("compile_cache", _compile_cache,
           fast=_disk_warm_compile, oracle=_cold_compile,
           check=_same_compile, floor=2.5),
    Kernel("eval3", _eval3,
           fast=_eval3_into,
           oracle=lambda s: [s.reference.simulate(a) for a in s.assignments],
           check=_same_eval3, floor=30.0),
    Kernel("atpg_flow", _atpg_flow,
           fast=lambda s: AtpgFlow(s.netlist, s.config).run(s.workload),
           oracle=lambda s: generate_tests(s.netlist, s.workload,
                                           backtrack_limit=BACKTRACK_LIMIT),
           check=_same_coverage, floor=5.0),
)


# ----------------------------------------------------------------------
# runner
# ----------------------------------------------------------------------
def _timed(fn: Callable[[Any], Any], state: Any, times: List[float],
           clock: Callable[[], float]) -> Any:
    start = clock()
    out = fn(state)
    times.append(clock() - start)
    return out


def run_kernel(kernel: Kernel,
               clock: Callable[[], float] = time.perf_counter,
               ) -> Dict[str, object]:
    """Time ``kernel`` in alternating fast/oracle pairs; its report row.

    Raises :class:`AssertionError` naming the kernel when any pair's
    outputs differ.
    """
    fast_s: List[float] = []
    oracle_s: List[float] = []
    with kernel.setup() as state:
        while len(fast_s) < MIN_PAIRS or sum(oracle_s) < MIN_ORACLE_SECONDS:
            if len(fast_s) % 2 == 0:
                fast = _timed(kernel.fast, state, fast_s, clock)
                oracle = _timed(kernel.oracle, state, oracle_s, clock)
            else:
                oracle = _timed(kernel.oracle, state, oracle_s, clock)
                fast = _timed(kernel.fast, state, fast_s, clock)
            mismatch = kernel.check(state, fast, oracle)
            if mismatch is not None:
                raise AssertionError(
                    f"{kernel.name}: pair {len(fast_s)}: {mismatch}")
    ratios = [o / max(f, 1e-9) for f, o in zip(fast_s, oracle_s)]
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    if q3 < kernel.floor:
        verdict = "FAIL"
        note = f"upper-quartile ratio {q3:.2f}x < floor {kernel.floor:g}x"
    else:
        verdict, note = "ok", ""
    return {
        "kernel": kernel.name,
        "pairs": len(ratios),
        "fast_s": statistics.median(fast_s),
        "oracle_s": statistics.median(oracle_s),
        "ratio": median,
        "ratio_q1": q1,
        "ratio_q3": q3,
        "floor": kernel.floor,
        "verdict": verdict,
        "note": note,
    }


def run_bench(kernels: Sequence[Kernel]) -> Dict[str, object]:
    """Run every kernel on this host; returns the report dict."""
    rec = get_recorder()
    rows = []
    for kernel in kernels:
        with rec.span("bench.kernel", cat="bench", kernel=kernel.name):
            rows.append(run_kernel(kernel))
    return {
        "schema": 3,
        "date": datetime.date.today().isoformat(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "kernels": rows,
    }


def render_report(report: Dict[str, object]) -> str:
    """Aligned text table of one bench run."""
    lines = [
        f"repro bench -- {report['date']}, python {report['python']}; "
        f"ratio = oracle / fast",
        f"{'kernel':<20} {'pairs':>5} {'fast s':>8} {'oracle s':>8} "
        f"{'ratio':>7} {'q1':>7} {'q3':>7} {'floor':>6}  verdict",
    ]
    for row in report["kernels"]:
        lines.append(
            f"{row['kernel']:<20} {row['pairs']:>5} {row['fast_s']:>8.4f} "
            f"{row['oracle_s']:>8.4f} {row['ratio']:>6.2f}x "
            f"{row['ratio_q1']:>6.2f}x {row['ratio_q3']:>6.2f}x "
            f"{row['floor']:>5g}x  {row['verdict']}"
            + (f" ({row['note']})" if row["note"] else ""))
    return "\n".join(lines)


def bench_main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point for ``python -m repro bench``."""
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Time each fast kernel against its oracle in "
                    "alternating pairs on this host; exit 1 when a "
                    "kernel's upper-quartile speedup is below its floor.",
    )
    parser.add_argument("--output", metavar="FILE", default=None,
                        help="also write the report as JSON to FILE")
    add_trace_argument(parser)
    args = parser.parse_args(list(argv) if argv is not None else None)

    manifest_extra: Dict[str, object] = {}
    with trace_session(args.trace, "bench", argv=list(argv or []),
                       extra=manifest_extra):
        report = run_bench(KERNELS)
        manifest_extra["kernels"] = [
            {k: row[k] for k in ("kernel", "ratio", "verdict")}
            for row in report["kernels"]
        ]
    print(render_report(report))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"[written to {args.output}]")
    failures = [row for row in report["kernels"] if row["verdict"] == "FAIL"]
    for row in failures:
        print(f"FAIL {row['kernel']}: {row['note']}", file=sys.stderr)
    return 1 if failures else 0

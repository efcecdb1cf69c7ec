"""Benchmark of the FLH reproduction: four seeded, checked workloads.

Run from the repository root::

    python3 perfbench/run.py --workload tables --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/workloads.py``): ``tables`` (Tables I-III),
``fanout`` (Table IV's fanout optimizer), ``atpg`` (two-phase ATPG) and
``fsim`` (fault simulation on a stress circuit).

A run makes its inputs from ``--seed``, then sets up ``SETUP_REPEATS``
times: each set-up starts a fresh interpreter that imports the program,
then loads the inputs; ``setup_s`` is the median.  One untimed warm-up
operation follows.  Then operations repeat, cycling through the input
pool, until ``--seconds`` of operation time have been measured.  Each
operation's output is checked after it is timed.  Except in ``fsim``,
whose state is a loaded design, the program's caches are emptied before
every operation, so no operation reuses an earlier one's work.
Operations run one at a time: the benchmark is a closed loop with one
client.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, measured with tracing off:

``latency_ref``  median operation time, in units of a fixed reference
                 loop timed just before each operation;
``setup_s``      median set-up time;
``peak_rss_mb``  the process's peak resident memory.

The reference unit is there for shared hosts, whose speed can change
twofold from one spell of seconds or minutes to the next, so that a
whole run falls in a slow one.  On a shared two-vCPU virtual machine,
median operation time in milliseconds spread by 15 to 50 percent over
five to ten runs (interquartile range over median) while its ratio to
the reference loop spread by 2 to 5 percent.  The per-layer report
below gives times in milliseconds.

``--trace 1`` installs the program's recorder (``repro.obs``) and
reports per-layer metrics, as means per operation.  The benchmark opens
a span around every call it makes into a layer; the program's own
spans (compile, fault simulation, the ATPG phases) nest inside them.  A
layer's ``<layer>_ms`` is its self time: its spans' time minus the
part their child spans cover.  ``unattributed_ms`` is operation time
outside every layer span, so the layer times add up to the mean
operation time.  A layer the workload never enters reads 0.

Runs are isolated from each other and from the user's files: the
program's disk cache lives in a private directory under
``.bench_build/`` that is removed at exit.  Exit status is 2, with no
result line, when the program's source is not in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

SETUP_REPEATS = 3

#: Per-layer time metrics, in report order.
LAYERS = ("parse", "map", "dft", "compile", "sta", "power", "fanout_opt",
          "atpg", "podem", "fsim", "unattributed")
#: Per-layer work counts, per operation.
COUNTS = ("compiles", "compile_cache_hits", "podem_calls", "backtracks")

#: Benchmark spans are named ``perfbench.<layer>``; the operation span
#: itself holds the unattributed time.
BENCH_PREFIX = "perfbench."
OP_SPAN = BENCH_PREFIX + "op"
#: The program's own spans, by name prefix.  Spans that match nothing
#: are ignored, so their time stays with the enclosing layer.
PROGRAM_LAYERS = (
    ("compile.netlist", "compile"),
    ("atpg.phase2_podem", "podem"),
    ("atpg.parallel_podem", "podem"),
    ("atpg.", "atpg"),
    ("fsim.", "fsim"),
)


def layer_of(name: str):
    if name == OP_SPAN:
        return "unattributed"
    if name.startswith(BENCH_PREFIX):
        return name[len(BENCH_PREFIX):]
    for prefix, layer in PROGRAM_LAYERS:
        if name.startswith(prefix):
            return layer
    return None


def self_times(events) -> dict:
    """Self time per layer, in microseconds, from complete-span events.

    All spans come from one thread and nest properly, so a stack walk
    over spans ordered by start (outer first on ties) finds each span's
    parent, whose self time loses the child's duration.
    """
    spans = sorted(
        ((e["ts"], e["ts"] + e["dur"], layer_of(e["name"]))
         for e in events if e.get("ph") == "X" and layer_of(e["name"])),
        key=lambda s: (s[0], -s[1]))
    totals = dict.fromkeys(LAYERS, 0.0)
    stack = []  # (end, layer) of the open spans
    for start, end, layer in spans:
        while stack and stack[-1][0] <= start:
            stack.pop()
        if stack:
            totals[stack[-1][1]] -= end - start
        stack.append((end, layer))
        totals[layer] += end - start
    return totals


class Spans:
    """Opens ``perfbench.<layer>`` spans on the program's recorder."""

    def __init__(self, recorder):
        self.recorder = recorder

    def __call__(self, layer: str):
        return self.recorder.span(BENCH_PREFIX + layer, cat="perfbench")


def reference_seconds() -> float:
    """Time a fixed piece of interpreter work.

    Dict inserts, string and tuple allocation and a keyed sort: the mix
    the program's own Python code runs, so when the host slows down it
    slows this loop and the operations alike.
    """
    start = time.perf_counter()
    table = {}
    for i in range(4000):
        table[str(i)] = [i, (i, i + 1)]
    sorted(table, key=lambda key: table[key][1])
    return time.perf_counter() - start


def cold_import(modules, src: Path) -> None:
    """Run a fresh interpreter that imports ``modules`` and exits."""
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "".join(f"import {m}\n" for m in modules)
    # No timeout: Popen.wait polls in 50 ms steps when given one.
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   stdin=subprocess.DEVNULL)


def measure(workload, seconds: float, trace: bool, src: Path) -> dict:
    from repro.obs import NullRecorder, Recorder, set_recorder

    from workloads import CheckFailed, clear_caches

    inputs = workload.inputs()
    setups = []
    for _ in range(SETUP_REPEATS):
        clear_caches()
        start = time.perf_counter()
        cold_import(workload.modules, src)
        state = workload.setup(inputs)
        setups.append(time.perf_counter() - start)

    null = NullRecorder()
    workload.isolate()
    workload.run(state, 0, Spans(null))  # warm-up: lazy imports, plans

    # Only operations record: checks run with the recorder off.
    recorder = Recorder() if trace else null
    spans = Spans(recorder)
    failures = []
    relative = []
    counts = dict.fromkeys(COUNTS, 0)
    measured = 0.0
    k = 0
    while measured < seconds:
        workload.isolate()
        reference = reference_seconds()
        set_recorder(recorder)
        start = time.perf_counter()
        try:
            with spans("op"):
                out = workload.run(state, k, spans)
        except Exception:
            failures.append(f"operation {k}: {traceback.format_exc()}")
            out = None
        elapsed = time.perf_counter() - start
        set_recorder(None)
        relative.append(elapsed / reference)
        measured += elapsed
        if out is not None:
            try:
                workload.check(state, k, out)
            except CheckFailed as exc:
                failures.append(f"operation {k}: {exc}")
            except Exception:
                failures.append(f"operation {k}: {traceback.format_exc()}")
            for key, value in workload.counts(out).items():
                counts[key] += value
        k += 1

    for failure in failures:
        print(failure, file=sys.stderr)
    result = {"correct": not failures, "attempted": k,
              "failed": len(failures)}
    if trace:
        metrics = {}
        for layer, micros in self_times(recorder.events).items():
            metrics[f"{layer}_ms"] = {"value": micros / 1e3 / k,
                                      "unit": "ms"}
        compiles = sum(1 for e in recorder.events
                       if e.get("ph") == "X" and e["name"] == "compile.netlist")
        counts["compiles"] = compiles
        counts["compile_cache_hits"] = (recorder.counter("compile.memory_hits")
                                        + recorder.counter("compile.disk_hits"))
        for key, value in counts.items():
            metrics[key] = {"value": value / k, "unit": "count"}
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "latency_ref": {"value": statistics.median(relative),
                            "unit": "ref"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_kib / 1024, "unit": "MB"},
        }
    result["metrics"] = metrics
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    here = Path(__file__).resolve().parent
    root = here.parent
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's source is missing ({src})",
              file=sys.stderr)
        return 2
    build = root / ".bench_build"
    build.mkdir(exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="perfbench-cache-", dir=build)
    # Keep the program inside the checkout and on its defaults.
    for var in ("REPRO_TRACE", "REPRO_DISK_CACHE", "REPRO_CACHE_MAX_BYTES",
                "REPRO_WIDE_MIN_PATTERNS", "REPRO_WIDE_MIN_GATES"):
        os.environ.pop(var, None)
    os.environ["REPRO_CACHE_DIR"] = cache_dir
    sys.path[:0] = [str(here), str(src)]
    try:
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
        workload = WORKLOADS[args.workload](args.seed)
        result = measure(workload, args.seconds, bool(args.trace), src)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

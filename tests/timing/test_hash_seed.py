"""Timing and power results must not depend on ``PYTHONHASHSEED``.

Net fanouts are sets, whose iteration order follows string hashing;
any float sum taken in that order moves in the last digit from one
interpreter to the next.  The check needs fresh interpreters, so it
runs a short script under two hash seeds and compares the output.  The
script ends with a Table IV row, whose candidates are copies that share
fanout sets and are re-timed from their edit records.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SCRIPT = """
from repro.bench import load_circuit
from repro.dft import insert_scan, optimize_fanout
from repro.dft.fanout_opt import combinational_power
from repro.synth import map_netlist
from repro.timing import analyze, net_slacks

scan = insert_scan(map_netlist(load_circuit("s1423")))
report = analyze(scan.netlist, scan.library)
print(sorted(report.arrival.items()))
print(sorted(net_slacks(scan.netlist, report.critical_delay,
                        scan.library).items()))
print(repr(combinational_power(scan, 50)))
# Table IV's quick row: copied netlists, re-timing and the load sweep.
s838 = insert_scan(map_netlist(load_circuit("s838")))
result = optimize_fanout(s838, n_vectors=20, max_candidates=10)
print(repr((result.as_row(), result.comb_power_after,
            result.area_overhead_after_pct)))
"""


def _run(hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300,
                          check=True)
    return done.stdout


def test_arrivals_slacks_and_power_ignore_hash_seed():
    first, second = _run("0"), _run("2")
    assert first.count("\n") == 4
    assert first == second

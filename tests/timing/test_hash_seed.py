"""Timing and power results must not depend on ``PYTHONHASHSEED``.

Net fanouts are sets, whose iteration order follows string hashing;
any float sum taken in that order moves in the last digit from one
interpreter to the next.  The check needs fresh interpreters, so it
runs a short script under two hash seeds and compares the output.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SCRIPT = """
from repro.bench import load_circuit
from repro.dft import insert_scan
from repro.dft.fanout_opt import combinational_power
from repro.synth import map_netlist
from repro.timing import analyze, net_slacks

scan = insert_scan(map_netlist(load_circuit("s1423")))
report = analyze(scan.netlist, scan.library)
print(sorted(report.arrival.items()))
print(sorted(net_slacks(scan.netlist, report.critical_delay,
                        scan.library).items()))
print(repr(combinational_power(scan, 50)))
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
    assert first.count("\n") == 3
    assert first == second

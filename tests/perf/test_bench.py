"""Tests for the bench runner: fake kernels on a fake clock.

Nothing here sleeps, runs a real kernel or imports numpy (the no-numpy
CI job runs this file).
"""

import json
import os
import subprocess
import sys
from contextlib import contextmanager

import pytest

import repro
from repro.perf import bench
from repro.perf.bench import MIN_ORACLE_SECONDS, MIN_PAIRS, Kernel, run_kernel


class FakeKernel:
    """Fast and oracle sides that advance a fake clock by set durations.

    ``fast_s``/``oracle_s`` give the n-th call's duration (the last one
    repeats); every call and every check is logged in ``calls``.
    """

    def __init__(self, fast_s, oracle_s, floor=2.0, min_cores=1,
                 mismatch_at=None):
        self.now = 0.0
        self.fast_s = list(fast_s)
        self.oracle_s = list(oracle_s)
        self.calls = []
        self.entered = self.exited = 0
        self.mismatch_at = mismatch_at
        self.kernel = Kernel("fake", self.setup, self.fast, self.oracle,
                             self.check, floor=floor, min_cores=min_cores)

    def clock(self):
        return self.now

    @contextmanager
    def setup(self):
        self.entered += 1
        try:
            yield "state"
        finally:
            self.exited += 1

    def _call(self, side, durations):
        n = sum(1 for c in self.calls if c == side)
        self.calls.append(side)
        self.now += durations[min(n, len(durations) - 1)]
        return (side, n)

    def fast(self, state):
        assert state == "state"
        return self._call("fast", self.fast_s)

    def oracle(self, state):
        return self._call("oracle", self.oracle_s)

    def check(self, state, fast, oracle):
        self.calls.append("check")
        assert fast == ("fast", oracle[1]) and oracle[0] == "oracle"
        if oracle[1] == self.mismatch_at:
            return "masks differ"
        return None

    def run(self, cores=8):
        return run_kernel(self.kernel, cores, clock=self.clock)


def test_pairs_alternate_their_order():
    fake = FakeKernel([0.01], [0.3])
    row = fake.run()
    assert row["pairs"] == MIN_PAIRS
    timed = [c for c in fake.calls if c != "check"]
    assert timed == ["fast", "oracle", "oracle", "fast"] * 2 + [
        "fast", "oracle"]
    assert fake.calls.count("check") == MIN_PAIRS
    assert fake.entered == fake.exited == 1


def test_pairs_until_the_oracle_has_its_measured_time():
    # Powers of two keep the fake clock's sums exact.
    fake = FakeKernel([2 ** -10], [MIN_ORACLE_SECONDS / 16])
    row = fake.run()
    assert row["pairs"] == 16
    assert row["oracle_s"] * row["pairs"] == MIN_ORACLE_SECONDS


def test_median_and_quartiles_of_the_paired_ratio():
    fake = FakeKernel([1.0, 1.0, 2.0, 1.0, 1.0], [2.0, 4.0, 12.0, 8.0, 10.0])
    row = fake.run()
    assert row["pairs"] == 5
    assert (row["ratio_q1"], row["ratio"], row["ratio_q3"]) == (4.0, 6.0, 8.0)
    assert row["fast_s"] == 1.0
    assert row["oracle_s"] == 8.0


def test_one_outlier_pair_does_not_fail_a_kernel():
    fake = FakeKernel([0.1, 0.1, 0.1, 0.1, 2.0], [1.0], floor=5.0)
    row = fake.run()
    assert row["ratio"] == pytest.approx(10.0)
    assert row["verdict"] == "ok"


def test_upper_quartile_below_the_floor_fails():
    fake = FakeKernel([1.0], [1.0, 2.0, 3.0, 4.0, 4.5], floor=5.0)
    row = fake.run()
    assert row["ratio_q3"] == 4.0
    assert row["kernel"] == "fake"
    assert row["verdict"] == "FAIL"
    assert "4.00x < floor 5x" in row["note"]


def test_three_times_slower_fast_side_fails():
    """A floor of a third of the median catches a 3x slowdown: the
    jittered ratios read 10x around their median, the floor 4x."""
    oracle_s = [1.0, 1.1, 0.9, 1.05, 0.95]
    assert FakeKernel([0.1], oracle_s, floor=4.0).run()["verdict"] == "ok"
    slow = FakeKernel([0.3], oracle_s, floor=4.0).run()
    assert slow["verdict"] == "FAIL"
    assert slow["ratio_q3"] < 4.0


def test_too_few_cores_waive_the_floor_but_not_the_check():
    fake = FakeKernel([1.0], [1.0], floor=2.5, min_cores=4)
    row = fake.run(cores=2)
    assert row["verdict"] == "waived"
    assert row["note"] == "floor waived: 2 usable core(s) < 4"
    assert fake.calls.count("check") == row["pairs"]

    mismatch = FakeKernel([1.0], [1.0], min_cores=4, mismatch_at=1)
    with pytest.raises(AssertionError, match="fake"):
        mismatch.run(cores=2)


def test_identity_mismatch_raises_naming_the_kernel():
    fake = FakeKernel([0.01], [0.3], mismatch_at=2)
    with pytest.raises(AssertionError,
                       match=r"^fake: pair 3: masks differ$"):
        fake.run()
    assert fake.calls.count("check") == 3
    assert fake.exited == 1


def _report(verdict):
    return {
        "schema": 2, "date": "2026-01-01", "python": "3.11",
        "platform": "test", "usable_cores": 2,
        "kernels": [{
            "kernel": "fake", "pairs": 5, "fast_s": 0.1, "oracle_s": 1.0,
            "ratio": 10.0, "ratio_q1": 9.0, "ratio_q3": 11.0, "floor": 12.0,
            "min_cores": 1, "verdict": verdict,
            "note": "upper-quartile ratio 11.00x < floor 12x"
            if verdict == "FAIL" else "",
        }],
    }


def test_render_report():
    text = bench.render_report(_report("FAIL"))
    assert "2 usable core(s)" in text
    assert "fake" in text and "10.00x" in text and "12x" in text
    assert "FAIL (upper-quartile ratio 11.00x < floor 12x)" in text


def test_cli_exits_1_naming_the_failed_kernel(monkeypatch, capsys,
                                              tmp_path):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(bench, "run_bench", lambda kernels: _report("FAIL"))
    assert bench.bench_main([]) == 1
    assert "FAIL fake: upper-quartile" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []   # JSON only with --output

    monkeypatch.setattr(bench, "run_bench", lambda kernels: _report("ok"))
    output = tmp_path / "bench.json"
    assert bench.bench_main(["--output", str(output)]) == 0
    assert json.loads(output.read_text())["kernels"][0]["verdict"] == "ok"


def test_reference_oracles_load_neither_the_harness_nor_numpy():
    code = ("import sys, repro.perf.reference; "
            "print('repro.perf.bench' in sys.modules, 'numpy' in sys.modules)")
    src = os.path.dirname(os.path.dirname(repro.__file__))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.split() == ["False", "False"]

"""Tests for the parallel experiment runner."""

import os
import time

import pytest

from repro.experiments.parallel import (
    ParallelRunner,
    TaskOutcome,
    error_row,
    run_per_circuit,
)


# Worker functions must be module-level so the fork/spawn child can
# resolve them.
def square(x):
    return x * x

def crash_on_three(x):
    if x == 3:
        raise ValueError(f"bad item {x}")
    return x + 100

def hard_exit_on_two(x):
    if x == 2:
        os._exit(17)  # simulate an interpreter abort, not an exception
    return x

def sleep_for(seconds):
    time.sleep(seconds)
    return seconds

def sever_result_pipe(x):
    # Close every inherited fd (the result pipe included): the task
    # finishes but its outcome can never be delivered.
    os.closerange(3, 1024)
    return x

def return_unpicklable(x):
    return lambda: x  # lambdas cannot cross the result pipe


class TestSerial:
    def test_map_preserves_order(self):
        outcomes = ParallelRunner(processes=1).map(square, [3, 1, 2])
        assert [o.value for o in outcomes] == [9, 1, 4]
        assert [o.index for o in outcomes] == [0, 1, 2]
        assert all(o.ok for o in outcomes)

    def test_exception_becomes_error_outcome(self):
        outcomes = ParallelRunner(processes=1).map(
            crash_on_three, [1, 3, 5]
        )
        assert [o.ok for o in outcomes] == [True, False, True]
        assert "ValueError: bad item 3" in outcomes[1].error
        assert outcomes[2].value == 105

    def test_invalid_processes_rejected(self):
        with pytest.raises(ValueError):
            ParallelRunner(processes=0)

    @pytest.mark.parametrize("timeout", [0, -1.0])
    def test_non_positive_timeout_rejected(self, timeout):
        # A zero or negative limit would report every task as timed out.
        with pytest.raises(ValueError):
            ParallelRunner(processes=2, timeout=timeout)


class TestProcesses:
    def test_parallel_equals_serial(self):
        """Property: N-process output == serial output, element-wise."""
        items = list(range(8))
        serial = ParallelRunner(processes=1).map(square, items)
        parallel = ParallelRunner(processes=3).map(square, items)
        assert [(o.index, o.item, o.ok, o.value) for o in parallel] == \
               [(o.index, o.item, o.ok, o.value) for o in serial]

    def test_exception_isolated_per_task(self):
        outcomes = ParallelRunner(processes=2).map(
            crash_on_three, [1, 3, 5]
        )
        assert [o.ok for o in outcomes] == [True, False, True]
        assert "ValueError: bad item 3" in outcomes[1].error

    def test_hard_crash_does_not_kill_run(self):
        """os._exit in a worker must degrade to an error outcome."""
        outcomes = ParallelRunner(processes=2).map(
            hard_exit_on_two, [1, 2, 4]
        )
        assert [o.ok for o in outcomes] == [True, False, True]
        assert "worker died" in outcomes[1].error
        assert [o.value for o in outcomes] == [1, None, 4]

    def test_timeout_terminates_worker(self):
        outcomes = ParallelRunner(processes=2, timeout=0.3).map(
            sleep_for, [0.01, 30.0]
        )
        assert outcomes[0].ok and outcomes[0].value == 0.01
        assert not outcomes[1].ok
        assert outcomes[1].timed_out
        assert "timed out" in outcomes[1].error
        # the slow task must not have blocked for its full 30 s
        assert outcomes[1].duration < 10.0

    def test_timeout_path_leaks_no_fds_or_children(self):
        """Regression: a timed-out worker must be fully cleaned up.

        The timeout path must close the parent's pipe end and join the
        killed worker; before the fix each timed-out task left an open
        connection (one FD pair) and an unreaped child behind for the
        life of the parent process.
        """
        import multiprocessing

        def open_fds():
            return len(os.listdir("/proc/self/fd"))

        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("requires /proc (Linux)")
        before_children = multiprocessing.active_children()
        before_fds = open_fds()
        outcomes = ParallelRunner(processes=2, timeout=0.2).map(
            sleep_for, [30.0, 30.0, 0.01]
        )
        assert [o.timed_out for o in outcomes] == [True, True, False]
        # every worker joined: no lingering child processes
        assert multiprocessing.active_children() == before_children
        # every pipe end closed: FD count back to the baseline
        assert open_fds() == before_fds

    def test_result_pipe_failure_is_not_a_timeout(self):
        """Regression: a child that cannot deliver its result used to
        exit 0, which the parent could only misread (e.g. as a
        timeout).  It must surface as a distinct error outcome."""
        outcomes = ParallelRunner(processes=2).map(
            sever_result_pipe, [1, 2]
        )
        for outcome in outcomes:
            assert not outcome.ok
            assert "result-pipe failure" in outcome.error
            assert not outcome.timed_out

    def test_unpicklable_result_reported_as_pipe_failure(self):
        """The error report channel still works when only the value
        itself cannot be shipped."""
        outcomes = ParallelRunner(processes=2).map(
            return_unpicklable, [1, 2]
        )
        for outcome in outcomes:
            assert not outcome.ok
            assert "result-pipe failure" in outcome.error
            assert not outcome.timed_out

    def test_single_item_runs_inline(self):
        # len(items) <= 1 short-circuits to the serial path
        outcomes = ParallelRunner(processes=4).map(square, [7])
        assert outcomes == [
            TaskOutcome(index=0, item=7, ok=True, value=49,
                        duration=outcomes[0].duration)
        ]


class TestHelpers:
    def test_run_per_circuit(self):
        outcomes = run_per_circuit(len, ["s27", "s298"], processes=1)
        assert [o.value for o in outcomes] == [3, 4]

    def test_error_row(self):
        outcome = TaskOutcome(index=0, item="s999", ok=False,
                              error="boom")
        assert error_row(outcome) == {"circuit": "s999", "error": "boom"}


def test_table_run_degrades_bad_circuit_to_error_row():
    """A crashing circuit yields an error row, not a dead table."""
    from repro.experiments import table1_area

    result = table1_area.run(circuits=("s27", "sBOGUS"), processes=1)
    ok_rows = [r for r in result.rows if "error" not in r]
    bad_rows = [r for r in result.rows if "error" in r]
    assert len(ok_rows) == 1 and ok_rows[0]["circuit"] == "s27"
    assert len(bad_rows) == 1 and bad_rows[0]["circuit"] == "sBOGUS"

"""Parallel experiment execution: fan work out across circuits.

The table and coverage experiments are embarrassingly parallel over
circuits, and each circuit is independent (its own synthesis, DFT
transforms and simulations).  :class:`ParallelRunner` maps a function
over a work list with:

* ``processes=1`` (the default) running everything inline -- identical
  results to a plain loop, no pickling requirements;
* ``processes=N`` running each task in its *own* subprocess (fork where
  available), so a crash -- even a hard interpreter abort -- in one
  circuit cannot take down the run;
* a per-task ``timeout`` (subprocess mode only) that terminates the
  worker and reports the task as failed;
* **deterministic result ordering**: outcomes always come back in work
  list order, regardless of completion order.

A failed task degrades to a :class:`TaskOutcome` with ``ok=False`` and
an error string; the experiment drivers turn that into a reported error
row instead of killing the whole table.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..obs import get_recorder


@dataclass(frozen=True)
class TaskOutcome:
    """Result of one task: either a value or an error description."""

    index: int              #: position in the submitted work list
    item: Any               #: the submitted work item
    ok: bool
    value: Any = None
    error: Optional[str] = None
    duration: float = 0.0   #: wall-clock seconds spent on the task
    timed_out: bool = False


#: Child exit code when the result pipe itself failed: the task may
#: have finished, but its outcome could not be shipped.  Distinct from
#: 0 so the parent never mistakes a lost result for a clean exit, and
#: distinct from common signal/interpreter codes.
RESULT_PIPE_EXIT = 13


def _child_main(conn, fn: Callable[[Any], Any], item: Any) -> None:
    """Subprocess entry: run one task and ship the outcome back.

    A failure to *send* (unpicklable value, broken/closed pipe) exits
    with :data:`RESULT_PIPE_EXIT` instead of 0: an exit-0 child that
    never delivered a result used to read as a silent success-shaped
    death, which the parent could misreport (e.g. as a timeout on a
    busy machine).  The non-zero code lets the parent name the real
    failure mode.
    """
    status = 0
    try:
        value = fn(item)
        try:
            conn.send((True, value, None))
        except Exception as send_exc:
            status = RESULT_PIPE_EXIT
            try:
                conn.send((False, None,
                           "result-pipe failure: "
                           f"{type(send_exc).__name__}: {send_exc}"))
                status = 0
            except Exception:
                pass
    except BaseException as exc:  # noqa: BLE001 -- isolation is the point
        try:
            conn.send((False, None, f"{type(exc).__name__}: {exc}"))
        except Exception:
            # The error report itself could not be delivered: exiting 0
            # here would be indistinguishable from a clean run.
            status = RESULT_PIPE_EXIT
    finally:
        try:
            conn.close()
        except OSError:
            status = status or RESULT_PIPE_EXIT
    if status:
        os._exit(status)


class ParallelRunner:
    """Map a function over items, optionally across processes.

    Parameters
    ----------
    processes:
        Maximum concurrent worker processes.  ``1`` (default) runs
        serially in-process -- same results, no subprocess overhead.
    timeout:
        Per-task wall-clock limit in seconds (subprocess mode only; a
        serial run cannot preempt a task).  ``None`` disables it; it
        must otherwise be positive.
    """

    def __init__(self, processes: int = 1,
                 timeout: Optional[float] = None):
        if processes < 1:
            raise ValueError(f"processes must be >= 1, got {processes}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        self.processes = processes
        self.timeout = timeout

    # ------------------------------------------------------------------
    def map(self, fn: Callable[[Any], Any],
            items: Sequence[Any]) -> List[TaskOutcome]:
        """Run ``fn`` over ``items``; outcomes in submission order."""
        items = list(items)
        if self.processes == 1 or len(items) <= 1:
            return self._map_serial(fn, items)
        return self._map_processes(fn, items)

    # ------------------------------------------------------------------
    def _map_serial(self, fn, items) -> List[TaskOutcome]:
        rec = get_recorder()
        outcomes: List[TaskOutcome] = []
        for index, item in enumerate(items):
            start = time.perf_counter()
            with rec.span("parallel.task", cat="parallel",
                          item=str(item), index=index, mode="serial"):
                try:
                    value = fn(item)
                except Exception as exc:  # crash isolation, serial flavour
                    rec.warning("parallel.task_failed",
                                counter="parallel.task_errors",
                                item=str(item),
                                exc_type=type(exc).__name__,
                                detail=str(exc))
                    outcomes.append(TaskOutcome(
                        index=index, item=item, ok=False,
                        error=f"{type(exc).__name__}: {exc}",
                        duration=time.perf_counter() - start,
                    ))
                else:
                    rec.incr("parallel.tasks_ok")
                    outcomes.append(TaskOutcome(
                        index=index, item=item, ok=True, value=value,
                        duration=time.perf_counter() - start,
                    ))
        return outcomes

    # ------------------------------------------------------------------
    def _map_processes(self, fn, items) -> List[TaskOutcome]:
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # platforms without fork: fn must pickle
            ctx = multiprocessing.get_context()

        results: Dict[int, TaskOutcome] = {}
        pending = list(enumerate(items))
        running: Dict[int, tuple] = {}  # index -> (proc, conn, start)

        def death_error(proc) -> str:
            """Human-readable cause for a worker that died resultless."""
            # The pipe can hit EOF a beat before the process table
            # updates; a short join makes the exit code readable.
            proc.join(timeout=1.0)
            code = proc.exitcode
            if code == RESULT_PIPE_EXIT:
                return ("result-pipe failure (worker could not deliver "
                        f"its outcome, exit code {code})")
            return f"worker died (exit code {code})"

        def reap(proc) -> None:
            """Join ``proc`` with bounded escalation.

            A terminated worker normally exits promptly, but a child
            wedged in uninterruptible state (or mid-write on a full
            pipe) must not hang the whole run: escalate to SIGKILL
            after a grace period and join unconditionally so the
            process table entry is always reclaimed.
            """
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.kill()
                proc.join()

        rec = get_recorder()

        def finish(index: int, outcome: TaskOutcome) -> None:
            proc, conn, _ = running.pop(index)
            conn.close()
            reap(proc)
            results[index] = outcome
            if rec.enabled:
                dur_us = outcome.duration * 1e6
                rec.complete_event(
                    "parallel.task", max(rec.now_us() - dur_us, 0.0),
                    dur_us, cat="parallel", item=str(outcome.item),
                    index=index, ok=outcome.ok, mode="subprocess",
                )
            if outcome.timed_out:
                rec.warning("parallel.task_timeout",
                            counter="parallel.task_timeouts",
                            item=str(outcome.item))
            elif not outcome.ok:
                rec.warning("parallel.task_failed",
                            counter="parallel.task_errors",
                            item=str(outcome.item),
                            detail=outcome.error or "")
            else:
                rec.incr("parallel.tasks_ok")

        try:
            while pending or running:
                while pending and len(running) < self.processes:
                    index, item = pending.pop(0)
                    parent_conn, child_conn = ctx.Pipe(duplex=False)
                    try:
                        proc = ctx.Process(
                            target=_child_main, args=(child_conn, fn, item)
                        )
                        proc.start()
                    except BaseException:
                        parent_conn.close()
                        child_conn.close()
                        raise
                    child_conn.close()
                    running[index] = (proc, parent_conn,
                                      time.perf_counter())

                progressed = False
                for index in list(running):
                    proc, conn, start = running[index]
                    elapsed = time.perf_counter() - start
                    if conn.poll(0.0):
                        try:
                            ok, value, error = conn.recv()
                        except EOFError:
                            ok, value, error = False, None, death_error(proc)
                        finish(index, TaskOutcome(
                            index=index, item=items[index], ok=ok,
                            value=value, error=error, duration=elapsed,
                        ))
                        progressed = True
                    elif self.timeout is not None and elapsed > self.timeout:
                        # Kill, then close our pipe end and join the
                        # worker (via finish): leaving either undone
                        # leaks one FD pair / zombie per timed-out
                        # task for the life of the parent process.
                        proc.terminate()
                        finish(index, TaskOutcome(
                            index=index, item=items[index], ok=False,
                            error=f"timed out after {self.timeout:.1f}s",
                            duration=elapsed, timed_out=True,
                        ))
                        progressed = True
                    elif not proc.is_alive() and not conn.poll(0.0):
                        finish(index, TaskOutcome(
                            index=index, item=items[index], ok=False,
                            error=death_error(proc),
                            duration=elapsed,
                        ))
                        progressed = True
                if not progressed and running:
                    time.sleep(0.005)
        finally:
            # Unwind on error/interrupt: no orphaned workers, no open
            # pipe ends, regardless of where the loop stopped.
            for index in list(running):
                proc, conn, _ = running.pop(index)
                proc.terminate()
                conn.close()
                reap(proc)

        return [results[i] for i in range(len(items))]


def run_per_circuit(row_fn: Callable[[str], Any],
                    circuits: Sequence[str],
                    processes: int = 1,
                    timeout: Optional[float] = None) -> List[TaskOutcome]:
    """Fan a per-circuit function out over a circuit list."""
    return ParallelRunner(processes=processes, timeout=timeout).map(
        row_fn, list(circuits)
    )


def error_row(outcome: TaskOutcome, key: str = "circuit") -> Dict[str, object]:
    """Degraded table row for a failed per-circuit task."""
    return {key: outcome.item, "error": outcome.error}

"""CLI glue for tracing: the ``--trace`` knob and ``repro trace``.

Every instrumented CLI (``atpg``, ``fsim``, ``bench``, the experiment
driver) calls :func:`add_trace_argument` and wraps its body in
:func:`trace_session`: with no ``--trace`` (and no ``REPRO_TRACE``)
the session installs nothing and every instrumented call site hits
the :class:`~repro.obs.NullRecorder` -- near-zero overhead; with a
path, a real :class:`~repro.obs.Recorder` is installed for the run's
duration and the trace / event log / manifest are written on exit,
*including* when the run raises (the partial trace is exactly what you
want when diagnosing the crash).

``python -m repro trace RUN.json`` validates an emitted run:
structural Chrome-trace shape plus the manifest's ``error``, which
names the exception type of a run that raised (see
:mod:`repro.obs.validate`).
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from typing import Dict, List, Optional

from .export import write_run
from .recorder import NULL_RECORDER, Recorder, use_recorder
from .validate import check_run

#: Environment fallback for the ``--trace`` argument.
TRACE_ENV = "REPRO_TRACE"


def add_trace_argument(parser: argparse.ArgumentParser) -> None:
    """Add the shared ``--trace FILE`` option (default: ``REPRO_TRACE``)."""
    parser.add_argument(
        "--trace", metavar="FILE",
        default=os.environ.get(TRACE_ENV) or None,
        help="record structured run events and write a Chrome "
             "trace-event JSON (open in chrome://tracing or Perfetto), "
             "a .events.jsonl log and a .manifest.json next to FILE; "
             f"defaults to ${TRACE_ENV} when set",
    )


@contextmanager
def trace_session(trace_path: Optional[str], command: str,
                  argv: Optional[List[str]] = None,
                  extra: Optional[Dict[str, object]] = None):
    """Install a recorder for one CLI run and export it on the way out.

    Yields the active recorder (the shared no-op when ``trace_path``
    is falsy).  ``extra`` is a caller-owned dict exported into the
    manifest's ``extra`` field; the caller may keep filling it until
    the context exits (e.g. per-circuit coverage).  A body that raises
    writes the exception's type name as the manifest's ``error``.
    """
    if not trace_path:
        yield NULL_RECORDER
        return
    recorder = Recorder()
    error = None
    try:
        with use_recorder(recorder):
            with recorder.span(f"cli.{command}", cat="cli"):
                yield recorder
    except BaseException as exc:
        error = type(exc).__name__
        raise
    finally:
        paths = write_run(recorder, trace_path, command=command,
                          argv=argv, extra=extra, error=error)
        print(f"[trace written to {paths['trace']} "
              f"(+ events.jsonl, manifest.json)]", file=sys.stderr)


def trace_main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro trace`` -- validate emitted trace artifacts."""
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="Structurally validate a --trace run: Chrome "
                    "trace-event shape, monotonic timestamps, and a "
                    "manifest that records no error.",
    )
    parser.add_argument("traces", nargs="+", metavar="TRACE.json",
                        help="trace files emitted by --trace")
    args = parser.parse_args(argv)

    status = 0
    for path in args.traces:
        problems = check_run(path)
        if problems:
            status = 1
            print(f"{path}: INVALID")
            for problem in problems:
                print(f"  - {problem}")
        else:
            print(f"{path}: ok")
    return status

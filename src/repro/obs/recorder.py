"""Process-local structured observability: events, spans, counters.

The repository's engines (compiled simulation, the two-phase ATPG
flow, the sharded worker pool, the disk cache) used to be black boxes:
when something went wrong it either crashed with a bare exception or
vanished into an ``except Exception: pass``.  This module is the
counterweight -- a zero-dependency :class:`Recorder` that instrumented
code routes its internal behavior through:

* **events** -- timestamped structured records (instant trace events);
  :meth:`Recorder.warning` is the designated sink for previously
  *silent* failure paths, pairing every warning with a named counter
  so swallowed errors become countable in tests and CI;
* **spans** -- monotonic-clock durations recorded as Chrome
  trace-event *complete* (``ph: "X"``) events, nestable via context
  managers;
* **counters / gauges** -- named integers (monotonic) and floats
  (last-write-wins) summarized into the per-run manifest.

Instrumentation cost when disabled is near zero: the module-level
default is a :class:`NullRecorder` whose methods are empty and whose
``span`` returns a shared no-op context manager, so guarded call sites
pay one function call and one attribute check per *round* (never per
fault or per gate -- hot inner loops are not instrumented).

The active recorder is process-local state (:func:`get_recorder` /
:func:`set_recorder` / :func:`use_recorder`); the CLIs install a real
:class:`Recorder` only when ``--trace FILE`` (or ``REPRO_TRACE``) is
given.  See :mod:`repro.obs.export` for the trace/manifest formats.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, List, Optional

#: Bump when the recorded event dict layout changes.
EVENT_SCHEMA = 1


class _NullSpan:
    """Shared no-op context manager returned by ``NullRecorder.span``."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


NULL_SPAN = _NullSpan()


class NullRecorder:
    """Disabled recorder: every method is a no-op.

    Installed by default so instrumented call sites never need to
    check for ``None``; the ``enabled`` flag lets the few sites that
    build non-trivial argument dicts skip that work entirely.
    """

    __slots__ = ()

    enabled = False

    def event(self, name: str, cat: str = "event",
              severity: str = "info", **args) -> None:
        pass

    def warning(self, name: str, counter: Optional[str] = None,
                **args) -> None:
        pass

    def incr(self, name: str, delta: int = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def span(self, name: str, cat: str = "span", **args) -> _NullSpan:
        return NULL_SPAN

    def now_us(self) -> float:
        return 0.0

    def complete_event(self, name: str, ts_us: float, dur_us: float,
                       cat: str = "span", **args) -> None:
        pass

    def counter(self, name: str) -> int:
        return 0

    def snapshot(self) -> Dict[str, object]:
        return {"enabled": False, "events": [], "counters": {},
                "gauges": {}}


NULL_RECORDER = NullRecorder()


class _Span:
    """Context manager recording one complete (``X``) trace event."""

    __slots__ = ("_recorder", "_name", "_cat", "_args", "_start")

    def __init__(self, recorder: "Recorder", name: str, cat: str,
                 args: Dict[str, object]):
        self._recorder = recorder
        self._name = name
        self._cat = cat
        self._args = args
        self._start = recorder.now_us()

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self._args = dict(self._args,
                              error=getattr(exc_type, "__name__",
                                            str(exc_type)))
        rec = self._recorder
        rec.complete_event(self._name, self._start,
                           rec.now_us() - self._start,
                           cat=self._cat, **self._args)
        return False


class Recorder:
    """Collecting recorder: structured events, spans, counters, gauges.

    Timestamps are monotonic (:func:`time.perf_counter`) microseconds
    since construction -- the unit Chrome trace events use -- so spans
    survive wall-clock adjustments.  Appends are guarded by a lock:
    the sharded pool records from watcher loops that may share the
    recorder with the main thread.
    """

    enabled = True

    def __init__(self, run_id: Optional[str] = None):
        if run_id is None:
            # pid + wall-clock ms alone collide when a forked worker
            # and its parent (or two recorders in the same process)
            # land in the same millisecond; the random suffix makes
            # every constructed recorder's id unique.
            run_id = (f"run-{os.getpid()}-{int(time.time() * 1000):x}"
                      f"-{os.urandom(4).hex()}")
        self.run_id = run_id
        self.started_unix = time.time()
        self._t0 = time.perf_counter()
        self._cpu0 = time.process_time()
        self._lock = threading.Lock()
        self.events: List[Dict[str, object]] = []
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}

    # -- clock ---------------------------------------------------------
    def now_us(self) -> float:
        """Monotonic microseconds since the recorder was created."""
        return (time.perf_counter() - self._t0) * 1e6

    def elapsed(self) -> Dict[str, float]:
        """Wall and CPU seconds since construction (for the manifest)."""
        return {
            "wall_seconds": time.perf_counter() - self._t0,
            "cpu_seconds": time.process_time() - self._cpu0,
        }

    # -- events --------------------------------------------------------
    def event(self, name: str, cat: str = "event",
              severity: str = "info", **args) -> None:
        """Record one instant event (Chrome ``ph: "i"``)."""
        record = {
            "name": name,
            "cat": cat,
            "ph": "i",
            "s": "p",
            "ts": self.now_us(),
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "severity": severity,
            "args": args,
        }
        with self._lock:
            self.events.append(record)

    def warning(self, name: str, counter: Optional[str] = None,
                **args) -> None:
        """Record a warning event and bump its counter.

        The contract for previously-silent exception paths: the
        swallow keeps its original control flow (shutdown semantics
        unchanged) but becomes *visible* -- an event names the site and
        the exception, and ``counter`` (default: the event name) lets
        tests and CI assert on how often it fired.
        """
        self.event(name, cat="warning", severity="warning", **args)
        self.incr(counter if counter is not None else name)

    def complete_event(self, name: str, ts_us: float, dur_us: float,
                       cat: str = "span", **args) -> None:
        """Record one complete span event (Chrome ``ph: "X"``).

        For callers that measured the interval themselves (e.g. the
        sharded pool's ``pool.shard_reply`` waits); :meth:`span` is the
        context-manager form.
        """
        record = {
            "name": name,
            "cat": cat,
            "ph": "X",
            "ts": ts_us,
            "dur": max(dur_us, 0.0),
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "args": args,
        }
        with self._lock:
            self.events.append(record)

    def span(self, name: str, cat: str = "span", **args) -> _Span:
        """Context manager timing a block as a complete trace event."""
        return _Span(self, name, cat, args)

    # -- counters / gauges ---------------------------------------------
    def incr(self, name: str, delta: int = 1) -> None:
        """Add ``delta`` to a named monotonic counter."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + delta

    def gauge(self, name: str, value: float) -> None:
        """Set a named gauge (last write wins)."""
        with self._lock:
            self.gauges[name] = value

    def counter(self, name: str) -> int:
        """Current value of a counter (0 if never incremented)."""
        return self.counters.get(name, 0)

    # -- summary -------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Point-in-time copy of everything recorded so far."""
        with self._lock:
            return {
                "enabled": True,
                "run_id": self.run_id,
                "events": [dict(e) for e in self.events],
                "counters": dict(self.counters),
                "gauges": dict(self.gauges),
            }


# ----------------------------------------------------------------------
# process-local active recorder
# ----------------------------------------------------------------------
_ACTIVE: "NullRecorder | Recorder" = NULL_RECORDER


def get_recorder():
    """The process's active recorder (a no-op unless one is installed)."""
    return _ACTIVE


def set_recorder(recorder) -> object:
    """Install ``recorder`` (``None`` = disable); returns the previous."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = recorder if recorder is not None else NULL_RECORDER
    return previous


class use_recorder:
    """Context manager installing a recorder for the enclosed block."""

    def __init__(self, recorder):
        self.recorder = recorder
        self._previous = None

    def __enter__(self):
        self._previous = set_recorder(self.recorder)
        return self.recorder

    def __exit__(self, *exc_info) -> bool:
        set_recorder(self._previous)
        return False

"""Export a :class:`~repro.obs.Recorder` run to inspectable artifacts.

Three files per traced run, all derived from one recorder:

``<trace>.json`` (the path given to ``--trace``)
    Chrome trace-event-format JSON -- an object with a ``traceEvents``
    array of instant (``ph: "i"``) and complete (``ph: "X"``) events,
    sorted by timestamp -- loadable directly in ``chrome://tracing``
    or https://ui.perfetto.dev.
``<trace>.events.jsonl``
    The same events as a flat JSON-lines log (one event per line, in
    record order), greppable without a trace viewer.
``<trace>.manifest.json``
    Per-run metadata: command and argv, run id, git revision, schema
    versions, wall/CPU time, every counter and gauge, compile-cache
    statistics (:func:`repro.netlist.compile_cache_info`), the
    exception type of a run that raised (``error``, ``null`` on
    success), plus any CLI-specific extras (per-circuit coverage,
    seeds, ...).

Writes are atomic (temp file + ``os.replace``) so a run killed
mid-export never leaves a torn trace behind.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import tempfile
from typing import Dict, List, Optional, Sequence

#: Bump when the trace/manifest layout changes.
TRACE_SCHEMA = 1
MANIFEST_SCHEMA = 2


def trace_path_siblings(trace_path: str) -> Dict[str, str]:
    """The three artifact paths derived from the ``--trace`` argument."""
    stem, ext = os.path.splitext(trace_path)
    if ext.lower() != ".json":
        stem = trace_path
    return {
        "trace": trace_path,
        "events": f"{stem}.events.jsonl",
        "manifest": f"{stem}.manifest.json",
    }


def build_trace(recorder) -> Dict[str, object]:
    """Chrome trace-event JSON object for one recorder.

    Events are sorted by ``ts`` (spans are *recorded* at completion,
    so raw record order interleaves nested spans out of time order);
    sorting restores the monotonic timeline trace viewers -- and the
    structural validator -- expect.
    """
    snapshot = recorder.snapshot()
    events = sorted(snapshot["events"], key=lambda e: e["ts"])
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": TRACE_SCHEMA,
            "run_id": snapshot.get("run_id"),
            "counters": snapshot["counters"],
            "gauges": snapshot["gauges"],
        },
    }


def _git_rev() -> Optional[str]:
    """Current git revision, or ``None`` outside a work tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def build_manifest(recorder, command: str,
                   argv: Optional[Sequence[str]] = None,
                   extra: Optional[Dict[str, object]] = None,
                   error: Optional[str] = None,
                   ) -> Dict[str, object]:
    """Per-run manifest: args, environment, timings, counters, caches.

    ``error`` is the exception type name of a run that raised, ``None``
    for one that finished.
    """
    snapshot = recorder.snapshot()
    try:
        from ..netlist import compile_cache_info
        cache_info: Optional[Dict[str, int]] = compile_cache_info()
    except Exception:  # manifest must never take the run down
        cache_info = None
    manifest: Dict[str, object] = {
        "schema": MANIFEST_SCHEMA,
        "trace_schema": TRACE_SCHEMA,
        "run_id": snapshot.get("run_id"),
        "command": command,
        "argv": list(argv) if argv is not None else None,
        "started_unix": getattr(recorder, "started_unix", None),
        "git_rev": _git_rev(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "pid": os.getpid(),
        "n_events": len(snapshot["events"]),
        "counters": snapshot["counters"],
        "gauges": snapshot["gauges"],
        "compile_cache": cache_info,
        "error": error,
    }
    manifest.update(recorder.elapsed())
    if extra:
        manifest["extra"] = extra
    return manifest


def _write_json_atomic(payload, path: str, jsonl: bool = False) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".trace-",
                                    suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            if jsonl:
                for record in payload:
                    handle.write(json.dumps(record, sort_keys=True))
                    handle.write("\n")
            else:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.remove(tmp_path)
        except OSError:
            pass
        raise


def write_run(recorder, trace_path: str, command: str,
              argv: Optional[Sequence[str]] = None,
              extra: Optional[Dict[str, object]] = None,
              error: Optional[str] = None) -> Dict[str, str]:
    """Write trace + JSONL event log + manifest; returns their paths."""
    paths = trace_path_siblings(trace_path)
    snapshot = recorder.snapshot()
    _write_json_atomic(build_trace(recorder), paths["trace"])
    _write_json_atomic(snapshot["events"], paths["events"], jsonl=True)
    _write_json_atomic(build_manifest(recorder, command, argv, extra,
                                      error), paths["manifest"])
    return paths

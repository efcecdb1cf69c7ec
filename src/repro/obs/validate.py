"""Structural validation of emitted traces and manifests.

The CI smoke step runs a traced ATPG flow and then validates the
artifacts with :func:`check_run` (surfaced as ``python -m repro
trace``): the trace must be shaped like Chrome trace-event JSON --
required keys per event, non-negative monotonic ``ts``, balanced
``B``/``E`` pairs or complete ``X`` events -- and the manifest must
not record an ``error``, so a run that raised fails the check instead
of validating clean.
"""

from __future__ import annotations

import json
import numbers
from typing import Dict, List, Optional

from .export import trace_path_siblings

#: Event keys every trace event must carry.
_REQUIRED_KEYS = ("name", "ph", "ts", "pid", "tid")


def validate_trace(trace: object) -> List[str]:
    """Problems with a parsed trace object (empty list = valid)."""
    problems: List[str] = []
    if not isinstance(trace, dict) or "traceEvents" not in trace:
        return ["trace is not an object with a 'traceEvents' array"]
    events = trace["traceEvents"]
    if not isinstance(events, list):
        return ["'traceEvents' is not an array"]
    if not events:
        problems.append("'traceEvents' is empty (nothing was recorded)")
    last_ts = None
    open_stacks: Dict[tuple, List[str]] = {}
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {i}: not an object")
            continue
        missing = [k for k in _REQUIRED_KEYS if k not in event]
        if missing:
            problems.append(f"event {i}: missing keys {missing}")
            continue
        ts = event["ts"]
        if not isinstance(ts, numbers.Real) or ts < 0:
            problems.append(f"event {i}: ts {ts!r} is not a non-negative "
                            f"number")
            continue
        if last_ts is not None and ts < last_ts:
            problems.append(
                f"event {i}: ts {ts} < previous {last_ts} "
                f"(trace not monotonic)"
            )
        last_ts = ts
        ph = event["ph"]
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, numbers.Real) or dur < 0:
                problems.append(
                    f"event {i}: complete event with bad dur {dur!r}"
                )
        elif ph == "B":
            key = (event["pid"], event["tid"])
            open_stacks.setdefault(key, []).append(event["name"])
        elif ph == "E":
            key = (event["pid"], event["tid"])
            stack = open_stacks.get(key)
            if not stack:
                problems.append(
                    f"event {i}: 'E' with no matching 'B' on "
                    f"pid/tid {key}"
                )
            else:
                stack.pop()
        elif ph not in ("i", "I", "C", "M"):
            problems.append(f"event {i}: unknown phase {ph!r}")
    for key, stack in open_stacks.items():
        if stack:
            problems.append(
                f"unbalanced 'B' events on pid/tid {key}: {stack}"
            )
    return problems


def validate_manifest(manifest: object) -> List[str]:
    """Problems with a parsed manifest (empty list = valid)."""
    problems: List[str] = []
    if not isinstance(manifest, dict):
        return ["manifest is not an object"]
    for key in ("schema", "run_id", "command", "counters",
                "wall_seconds"):
        if key not in manifest:
            problems.append(f"manifest missing key {key!r}")
    if not isinstance(manifest.get("counters"), dict):
        problems.append("manifest 'counters' is not an object")
    error = manifest.get("error")
    if error:
        problems.append(f"run failed: {error}")
    return problems


def check_run(trace_path: str) -> List[str]:
    """Validate one traced run's artifacts on disk.

    Checks the trace file structurally and, when the sibling manifest
    exists, the manifest too (including whether the run raised).
    """
    paths = trace_path_siblings(trace_path)
    try:
        with open(paths["trace"], "r", encoding="utf-8") as handle:
            trace = json.load(handle)
    except FileNotFoundError:
        return [f"trace file not found: {paths['trace']}"]
    except json.JSONDecodeError as exc:
        return [f"trace file is not valid JSON: {exc}"]
    problems = validate_trace(trace)
    manifest: Optional[object] = None
    try:
        with open(paths["manifest"], "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except FileNotFoundError:
        problems.append(f"manifest not found: {paths['manifest']}")
    except json.JSONDecodeError as exc:
        problems.append(f"manifest is not valid JSON: {exc}")
    if manifest is not None:
        problems.extend(validate_manifest(manifest))
    return problems

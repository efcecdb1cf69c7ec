"""Zero-dependency observability: run events, spans, counters, traces.

Public surface::

    from repro.obs import (
        Recorder, NullRecorder, get_recorder, set_recorder, use_recorder,
        write_run, build_manifest, build_trace,
        validate_trace, validate_manifest, check_run,
        add_trace_argument, trace_session,
    )

See ``docs/observability.md`` for the recorder API, the trace and
manifest formats, the CLI knobs and measured overhead.
"""

from .cli import TRACE_ENV, add_trace_argument, trace_main, trace_session
from .export import (
    MANIFEST_SCHEMA,
    TRACE_SCHEMA,
    build_manifest,
    build_trace,
    trace_path_siblings,
    write_run,
)
from .recorder import (
    EVENT_SCHEMA,
    NULL_RECORDER,
    NullRecorder,
    Recorder,
    get_recorder,
    set_recorder,
    use_recorder,
)
from .validate import (
    FATAL_COUNTERS,
    check_run,
    validate_manifest,
    validate_trace,
)

__all__ = [
    "EVENT_SCHEMA",
    "FATAL_COUNTERS",
    "MANIFEST_SCHEMA",
    "NULL_RECORDER",
    "NullRecorder",
    "Recorder",
    "TRACE_ENV",
    "TRACE_SCHEMA",
    "add_trace_argument",
    "build_manifest",
    "build_trace",
    "check_run",
    "get_recorder",
    "set_recorder",
    "trace_main",
    "trace_path_siblings",
    "trace_session",
    "use_recorder",
    "validate_manifest",
    "validate_trace",
    "write_run",
]

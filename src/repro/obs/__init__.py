"""Telemetry spine: counters, mergeable histograms, request traces, exporters.

The subsystem has two halves:

* :mod:`repro.obs.recorder` — the in-process collection layer: a
  thread-safe :class:`Recorder` (counters / gauges / fixed-bucket
  histograms / span trees) and the free :class:`NullRecorder` installed by
  default, so instrumentation left in hot paths costs an attribute lookup
  when telemetry is off.
* :mod:`repro.obs.export` — snapshot consumers: Chrome trace-event JSON
  (Perfetto-loadable) and a plain-text percentile summary, plus
  :func:`load_snapshot` to read a trace or a bare snapshot back.

Everything is stdlib-only.  See the README "Observability" section for the
end-to-end workflow (``repro.cli ... --trace-out trace.json`` then
``repro.cli stats trace.json``).
"""

from repro.obs.export import (
    chrome_trace,
    load_snapshot,
    render_summary,
    write_chrome_trace,
)
from repro.obs.recorder import (
    BUCKET_BOUNDS,
    NULL_RECORDER,
    SNAPSHOT_SCHEMA,
    Histogram,
    NullRecorder,
    Recorder,
    RecorderSnapshot,
    Span,
    SpanRecord,
    Stopwatch,
    current_trace_context,
    get_recorder,
    set_recorder,
    use_recorder,
)

__all__ = [
    "BUCKET_BOUNDS",
    "SNAPSHOT_SCHEMA",
    "Histogram",
    "SpanRecord",
    "Span",
    "Stopwatch",
    "RecorderSnapshot",
    "Recorder",
    "NullRecorder",
    "NULL_RECORDER",
    "get_recorder",
    "set_recorder",
    "use_recorder",
    "current_trace_context",
    "chrome_trace",
    "write_chrome_trace",
    "render_summary",
    "load_snapshot",
]

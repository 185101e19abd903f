"""Exporters for recorder snapshots: Chrome trace JSON, JSONL, text summary.

All three exporters consume the same :class:`~repro.obs.recorder.RecorderSnapshot`:

* :func:`chrome_trace` — the Chrome trace-event format (``traceEvents`` with
  complete ``"X"`` events), loadable directly in Perfetto or
  ``chrome://tracing``.  The full snapshot dict rides along under a
  top-level ``"snapshot"`` key (the format ignores unknown top-level keys),
  so one ``--trace-out`` file serves both the timeline viewer and
  ``repro.cli stats``.
* :func:`jsonl_events` — one JSON object per line: finished spans first,
  then counter/gauge/histogram events; greppable and streamable.
* :func:`render_summary` — a plain-text table of counters, gauges and
  latency percentiles (p50/p90/p99 from the mergeable histograms).

:func:`load_snapshot` is the inverse seam: it accepts a bare snapshot dict,
a Chrome-trace file with an embedded snapshot, or a JSONL stream, so the
``stats`` CLI can pretty-print whatever a previous run wrote.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

from repro.obs.recorder import (
    SNAPSHOT_SCHEMA,
    Histogram,
    RecorderSnapshot,
    SpanRecord,
)

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "jsonl_events",
    "write_jsonl",
    "render_summary",
    "load_snapshot",
]


# --------------------------------------------------------------------------- #
# Chrome trace-event JSON
# --------------------------------------------------------------------------- #
def _span_timestamps_us(spans: List[SpanRecord]) -> Dict[str, float]:
    """Microsecond timestamps per span, monotonic-aligned within each pid.

    Same-pid spans are placed on a shared monotonic axis (anchored at that
    pid's earliest span) so in-process nesting is exact to perf_counter
    resolution; the anchors themselves come from wall time, which aligns
    different processes to within clock skew.
    """
    bases: Dict[int, tuple] = {}
    for span in spans:
        base = bases.get(span.pid)
        if base is None or span.start_mono_s < base[1]:
            bases[span.pid] = (span.start_wall_s, span.start_mono_s)
    timestamps: Dict[str, float] = {}
    for span in spans:
        base_wall, base_mono = bases[span.pid]
        timestamps[span.span_id] = (
            base_wall + (span.start_mono_s - base_mono)
        ) * 1e6
    return timestamps


def chrome_trace(snapshot: RecorderSnapshot) -> Dict[str, Any]:
    """Render a snapshot as a Chrome trace-event JSON object."""
    timestamps = _span_timestamps_us(snapshot.spans)
    events = []
    for span in snapshot.spans:
        args: Dict[str, Any] = {
            "trace_id": span.trace_id,
            "span_id": span.span_id,
        }
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        for key, value in span.attrs.items():
            args[key] = value
        events.append(
            {
                "name": span.name,
                "cat": "repro",
                "ph": "X",
                "ts": timestamps[span.span_id],
                "dur": span.duration_s * 1e6,
                "pid": span.pid,
                "tid": span.tid,
                "args": args,
            }
        )
    events.sort(key=lambda e: e["ts"])
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        # Full snapshot piggybacks on the trace file; the trace-event format
        # ignores unknown top-level keys, and `repro.cli stats` reads it back.
        "snapshot": snapshot.to_dict(),
    }


def write_chrome_trace(
    snapshot: RecorderSnapshot, path: Union[str, Path]
) -> Path:
    """Write the Chrome trace for ``snapshot`` to ``path``; return the path."""
    path = Path(path)
    if path.parent != Path("."):
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(chrome_trace(snapshot), indent=2))
    return path


# --------------------------------------------------------------------------- #
# JSONL event stream
# --------------------------------------------------------------------------- #
def jsonl_events(snapshot: RecorderSnapshot) -> Iterator[Dict[str, Any]]:
    """Yield the snapshot as a stream of per-line JSON event objects."""
    yield {"event": "meta", "schema": SNAPSHOT_SCHEMA, "dropped_spans": snapshot.dropped_spans}
    for span in sorted(snapshot.spans, key=lambda s: (s.pid, s.start_mono_s)):
        record = span.to_dict()
        record["event"] = "span"
        yield record
    for name, value in sorted(snapshot.counters.items()):
        yield {"event": "counter", "name": name, "value": value}
    for name, value in sorted(snapshot.gauges.items()):
        yield {"event": "gauge", "name": name, "value": value}
    for name, histogram in sorted(snapshot.histograms.items()):
        record = histogram.to_dict()
        record["event"] = "histogram"
        record["name"] = name
        yield record


def write_jsonl(snapshot: RecorderSnapshot, path: Union[str, Path]) -> Path:
    """Write the JSONL event stream for ``snapshot`` to ``path``."""
    path = Path(path)
    if path.parent != Path("."):
        path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        for event in jsonl_events(snapshot):
            handle.write(json.dumps(event) + "\n")
    return path


# --------------------------------------------------------------------------- #
# Plain-text summary
# --------------------------------------------------------------------------- #
def _format_seconds(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value >= 1.0:
        return f"{value:.3f}s"
    if value >= 1e-3:
        return f"{value * 1e3:.3f}ms"
    return f"{value * 1e6:.1f}us"


def _render_serving_section(snapshot: RecorderSnapshot) -> List[str]:
    """Shed rates and per-tenant counters, when a daemon run is present.

    The daemon names its counters ``serve.*``, with per-tenant detail under
    ``serve.tenant.<name>.<metric>``; this section distills the ones an
    operator reads first: volume, shed rate, rate-limit refusals, tenants.
    """
    counters = snapshot.counters
    lines: List[str] = []
    volume = counters.get("serve.requests")
    if volume is not None:
        shed = counters.get("serve.shed", 0)
        shed_rate = shed / volume if volume else 0.0
        summary = (
            f"  serve: {volume} requests, {counters.get('serve.ok', 0)} ok, "
            f"{shed} shed ({shed_rate * 100:.1f}%)"
        )
        limited = counters.get("serve.rate_limited", 0)
        if limited:
            summary += f", {limited} rate-limited"
        lines.append(summary)
    tenant_metrics: Dict[str, Dict[str, int]] = {}
    prefix = "serve.tenant."
    for name, value in counters.items():
        if name.startswith(prefix):
            tenant, _, metric = name[len(prefix):].partition(".")
            if metric:
                tenant_metrics.setdefault(f"serve/{tenant}", {})[metric] = value
    if tenant_metrics:
        lines.append("  tenants:")
        width = max(len(key) for key in tenant_metrics)
        for key in sorted(tenant_metrics):
            detail = "  ".join(
                f"{metric}={value}"
                for metric, value in sorted(tenant_metrics[key].items())
            )
            lines.append(f"    {key.ljust(width)}  {detail}")
    if lines:
        lines.insert(0, "serving:")
    return lines


def render_summary(snapshot: RecorderSnapshot, title: str = "telemetry") -> str:
    """A human-readable summary: counters, gauges, latency percentiles.

    When the snapshot carries a daemon's telemetry (its ``stats`` reply) a
    ``serving:`` section distills shed rates and per-tenant traffic above
    the raw counter dump.
    """
    lines = [f"== {title} =="]
    lines.extend(_render_serving_section(snapshot))
    if snapshot.counters:
        lines.append("counters:")
        width = max(len(name) for name in snapshot.counters)
        for name in sorted(snapshot.counters):
            lines.append(f"  {name.ljust(width)}  {snapshot.counters[name]}")
    if snapshot.gauges:
        lines.append("gauges:")
        width = max(len(name) for name in snapshot.gauges)
        for name in sorted(snapshot.gauges):
            lines.append(f"  {name.ljust(width)}  {snapshot.gauges[name]:g}")
    if snapshot.histograms:
        lines.append("latency (count / mean / p50 / p90 / p99 / max):")
        width = max(len(name) for name in snapshot.histograms)
        for name in sorted(snapshot.histograms):
            histogram = snapshot.histograms[name]
            lines.append(
                f"  {name.ljust(width)}  {histogram.count:>6}  "
                f"{_format_seconds(histogram.mean):>10}  "
                f"{_format_seconds(histogram.percentile(0.50)):>10}  "
                f"{_format_seconds(histogram.percentile(0.90)):>10}  "
                f"{_format_seconds(histogram.percentile(0.99)):>10}  "
                f"{_format_seconds(histogram.max):>10}"
            )
    lines.append(
        f"spans: {len(snapshot.spans)} recorded"
        + (f", {snapshot.dropped_spans} dropped" if snapshot.dropped_spans else "")
    )
    traces = {span.trace_id for span in snapshot.spans}
    if traces:
        lines.append(f"traces: {len(traces)}")
    return "\n".join(lines)


# --------------------------------------------------------------------------- #
# Loading exported telemetry back
# --------------------------------------------------------------------------- #
def _snapshot_from_jsonl(lines: List[str]) -> RecorderSnapshot:
    snapshot = RecorderSnapshot()
    for line in lines:
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        event = record.get("event")
        if event == "span":
            snapshot.spans.append(SpanRecord.from_dict(record))
        elif event == "counter":
            snapshot.counters[record["name"]] = int(record["value"])
        elif event == "gauge":
            snapshot.gauges[record["name"]] = float(record["value"])
        elif event == "histogram":
            snapshot.histograms[record["name"]] = Histogram.from_dict(record)
        elif event == "meta":
            snapshot.dropped_spans = int(record.get("dropped_spans", 0))
    return snapshot


def load_snapshot(path: Union[str, Path]) -> RecorderSnapshot:
    """Load a snapshot from any exported form.

    Accepts a bare snapshot dict (``schema: repro.obs/1``), a Chrome trace
    file carrying an embedded ``snapshot`` key, or a JSONL event stream.
    """
    path = Path(path)
    text = path.read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        return _snapshot_from_jsonl(text.splitlines())
    if isinstance(data, dict):
        if data.get("schema") == SNAPSHOT_SCHEMA:
            return RecorderSnapshot.from_dict(data)
        embedded = data.get("snapshot")
        if isinstance(embedded, dict) and embedded.get("schema") == SNAPSHOT_SCHEMA:
            return RecorderSnapshot.from_dict(embedded)
    raise ValueError(
        f"{path} is not a recorder snapshot, a Chrome trace with an embedded "
        "snapshot, or a JSONL event stream"
    )

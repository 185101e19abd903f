"""The telemetry recorder: counters, gauges, mergeable histograms and spans.

One :class:`Recorder` instance collects everything a planning process wants
to report about itself:

* **counters** — monotonically increasing integers (cache hits, candidates
  bound-rejected, profiles compiled);
* **gauges** — last-written floats (queue depth, cache size);
* **histograms** — fixed-bucket latency/value distributions.  Every
  histogram in the system shares one bucket ladder
  (:data:`BUCKET_BOUNDS`, log-spaced from 1 µs to ~9 minutes), which is
  what makes merging *associative and commutative*: merging is element-wise
  addition of bucket counts, so snapshots taken in different processes
  (search shards) combine in any order into the same result;
* **spans** — a per-request trace tree.  :meth:`Recorder.span` opens a
  timed section; nesting is tracked through a :mod:`contextvars` context
  variable, so spans opened anywhere down the call stack attach to the
  right parent without threading a handle through every signature.  Each
  finished span records its duration into the ``span.<name>`` histogram
  (that is where the summary table's p50/p99 come from) and is appended to
  the span log for the Chrome-trace / JSONL exporters
  (:mod:`repro.obs.export`).

Telemetry is *disabled by default*: the process-wide recorder
(:func:`get_recorder`) starts as the shared :class:`NullRecorder`, whose
every method is a constant-time no-op and whose ``span()`` returns one
pre-built reusable null context manager — instrumented hot paths pay an
attribute lookup and a no-op call, nothing else
(``benchmarks/bench_telemetry_overhead.py`` gates this).  Enabling telemetry
is :func:`set_recorder`, or the :func:`use_recorder` context manager in
tests.

All mutating operations take the recorder's lock, so one recorder may be
shared by every thread of a process; cross-*process* aggregation goes
through :meth:`Recorder.snapshot` / :meth:`Recorder.merge` (sharded-search
workers record locally and ship snapshots back).
"""

from __future__ import annotations

import contextlib
import contextvars
import os
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

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
]

SNAPSHOT_SCHEMA = "repro.obs/1"

# One shared bucket ladder for every histogram: upper bounds in seconds,
# doubling from 1 µs to ~9 minutes, plus an implicit +inf overflow bucket.
# Sharing the ladder is the merge contract — two histograms merge by adding
# bucket counts element-wise, which is associative and commutative, so
# snapshots from any number of workers combine in any order.
BUCKET_BOUNDS: Tuple[float, ...] = tuple(1e-6 * (2.0 ** i) for i in range(30))

# Keeping every span of a pathological run would grow without bound; past
# the cap spans are counted (``dropped``) instead of stored.  Histograms and
# counters keep aggregating regardless, so percentiles stay correct.
DEFAULT_MAX_SPANS = 100_000


def _new_id() -> str:
    return uuid.uuid4().hex[:16]


@dataclass
class Histogram:
    """A fixed-bucket histogram over the shared :data:`BUCKET_BOUNDS` ladder.

    ``counts`` has one entry per bound plus the overflow bucket; ``sum`` /
    ``min`` / ``max`` track the exact moments so merged summaries do not
    lose the extremes to bucket resolution.
    """

    counts: List[int] = field(default_factory=lambda: [0] * (len(BUCKET_BOUNDS) + 1))
    count: int = 0
    sum: float = 0.0
    min: Optional[float] = None
    max: Optional[float] = None

    def observe(self, value: float) -> None:
        index = self._bucket_index(value)
        self.counts[index] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @staticmethod
    def _bucket_index(value: float) -> int:
        # Binary search over the static bounds (bisect semantics: first
        # bound >= value); the ladder is tiny, but plans observe thousands
        # of values so O(log n) beats a linear scan.
        lo, hi = 0, len(BUCKET_BOUNDS)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= BUCKET_BOUNDS[mid]:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def merge(self, other: "Histogram") -> None:
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.sum += other.sum
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-quantile (0..1) by interpolating in its bucket.

        Exact ``min``/``max`` clamp the estimate, so p0/p100 are exact and
        single-observation histograms report the observed value for every
        quantile.
        """
        if self.count == 0:
            return 0.0
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        rank = q * self.count
        cumulative = 0
        for i, c in enumerate(self.counts):
            if c == 0:
                continue
            if cumulative + c >= rank:
                lower = 0.0 if i == 0 else BUCKET_BOUNDS[i - 1]
                upper = (
                    BUCKET_BOUNDS[i]
                    if i < len(BUCKET_BOUNDS)
                    else (self.max if self.max is not None else lower)
                )
                fraction = (rank - cumulative) / c
                estimate = lower + (upper - lower) * max(0.0, min(1.0, fraction))
                if self.min is not None:
                    estimate = max(estimate, self.min)
                if self.max is not None:
                    estimate = min(estimate, self.max)
                return estimate
            cumulative += c
        return self.max if self.max is not None else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "counts": list(self.counts),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Histogram":
        counts = [int(c) for c in data["counts"]]
        if len(counts) != len(BUCKET_BOUNDS) + 1:
            raise ValueError(
                f"histogram has {len(counts)} buckets, expected "
                f"{len(BUCKET_BOUNDS) + 1} (the shared ladder changed?)"
            )
        return cls(
            counts=counts,
            count=int(data["count"]),
            sum=float(data["sum"]),
            min=data.get("min"),
            max=data.get("max"),
        )

    def copy(self) -> "Histogram":
        return Histogram(
            counts=list(self.counts),
            count=self.count,
            sum=self.sum,
            min=self.min,
            max=self.max,
        )


@dataclass(frozen=True)
class SpanRecord:
    """One finished span, ready for export.

    ``start_wall_s`` is UNIX wall time (cross-process alignment);
    ``start_mono_s`` is the process-local monotonic clock (exact in-process
    nesting); ``duration_s`` is monotonic elapsed time.  ``pid`` / ``tid``
    locate the span for the Chrome trace viewer.
    """

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    name: str
    start_wall_s: float
    start_mono_s: float
    duration_s: float
    pid: int
    tid: int
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_wall_s": self.start_wall_s,
            "start_mono_s": self.start_mono_s,
            "duration_s": self.duration_s,
            "pid": self.pid,
            "tid": self.tid,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SpanRecord":
        return cls(
            trace_id=data["trace_id"],
            span_id=data["span_id"],
            parent_id=data.get("parent_id"),
            name=data["name"],
            start_wall_s=float(data["start_wall_s"]),
            start_mono_s=float(data["start_mono_s"]),
            duration_s=float(data["duration_s"]),
            pid=int(data["pid"]),
            tid=int(data["tid"]),
            attrs=dict(data.get("attrs") or {}),
        )


# The ambient (trace_id, span_id) of the innermost open span in this
# execution context.  A ContextVar — not a thread-local — so spans nest
# correctly through generators and any future asyncio front end.
_CURRENT_SPAN: "contextvars.ContextVar[Optional[Tuple[str, str]]]" = (
    contextvars.ContextVar("repro_obs_current_span", default=None)
)


def current_trace_context() -> Optional[Tuple[str, str]]:
    """The ambient ``(trace_id, span_id)``, or ``None`` outside any span.

    This is what crosses process boundaries: ship it to a worker and open
    the worker's spans with ``_parent=context`` so they attach to the same
    request trace.
    """
    return _CURRENT_SPAN.get()


class Span:
    """One open timed section; use via ``with recorder.span(...) as span:``."""

    __slots__ = (
        "recorder",
        "name",
        "attrs",
        "trace_id",
        "span_id",
        "parent_id",
        "start_wall_s",
        "start_mono_s",
        "_token",
    )

    def __init__(
        self,
        recorder: "Recorder",
        name: str,
        attrs: Dict[str, Any],
        parent: Optional[Tuple[str, str]],
    ) -> None:
        self.recorder = recorder
        self.name = name
        self.attrs = attrs
        if parent is None:
            parent = _CURRENT_SPAN.get()
        if parent is None:
            self.trace_id = _new_id()
            self.parent_id = None
        else:
            self.trace_id, self.parent_id = parent
        self.span_id = _new_id()
        self._token = None
        self.start_wall_s = 0.0
        self.start_mono_s = 0.0

    def set_attr(self, key: str, value: Any) -> None:
        """Attach (or overwrite) one attribute on the open span."""
        self.attrs[key] = value

    def __enter__(self) -> "Span":
        self._token = _CURRENT_SPAN.set((self.trace_id, self.span_id))
        self.start_wall_s = time.time()
        self.start_mono_s = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        duration = time.perf_counter() - self.start_mono_s
        if self._token is not None:
            _CURRENT_SPAN.reset(self._token)
            self._token = None
        self.recorder._finish_span(self, duration)


class Stopwatch:
    """Accumulates monotonic elapsed time across many short sections.

    The search driver interleaves synthesis pulls and pricing calls; a
    stopwatch per bucket replaces the hand-rolled ``perf_counter`` pairs and
    keeps the synthesis/evaluation split the provenance contract requires.
    Not thread-safe (one stopwatch per driver run).
    """

    __slots__ = ("seconds", "_started")

    def __init__(self) -> None:
        self.seconds = 0.0
        self._started: Optional[float] = None

    def __enter__(self) -> "Stopwatch":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        if self._started is not None:
            self.seconds += time.perf_counter() - self._started
            self._started = None


@dataclass
class RecorderSnapshot:
    """An immutable-by-convention copy of a recorder's state.

    Snapshots are what travels: across processes (workers ship them back to
    the parent), to disk (the exporters consume them), and into merges
    (:meth:`Recorder.merge`).  ``to_dict`` is the *snapshot schema* — the
    one format ``repro.cli stats``, ``cache stats --json`` and the daemon's
    ``stats`` op all speak.
    """

    counters: Dict[str, int] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, Histogram] = field(default_factory=dict)
    spans: List[SpanRecord] = field(default_factory=list)
    dropped_spans: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": SNAPSHOT_SCHEMA,
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                name: histogram.to_dict()
                for name, histogram in sorted(self.histograms.items())
            },
            "spans": [span.to_dict() for span in self.spans],
            "dropped_spans": self.dropped_spans,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RecorderSnapshot":
        schema = data.get("schema")
        if schema != SNAPSHOT_SCHEMA:
            raise ValueError(
                f"unsupported snapshot schema {schema!r} (expected {SNAPSHOT_SCHEMA!r})"
            )
        return cls(
            counters={k: int(v) for k, v in (data.get("counters") or {}).items()},
            gauges={k: float(v) for k, v in (data.get("gauges") or {}).items()},
            histograms={
                name: Histogram.from_dict(entry)
                for name, entry in (data.get("histograms") or {}).items()
            },
            spans=[SpanRecord.from_dict(s) for s in data.get("spans") or []],
            dropped_spans=int(data.get("dropped_spans", 0)),
        )


class Recorder:
    """Thread-safe telemetry sink: counters, gauges, histograms, spans."""

    enabled = True

    def __init__(self, max_spans: int = DEFAULT_MAX_SPANS) -> None:
        self.max_spans = max_spans
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._spans: List[SpanRecord] = []
        self._dropped_spans = 0

    # A recorder travels inside objects that may be pickled defensively;
    # the lock does not survive pickling, so it is rebuilt on load.
    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Metrics
    # ------------------------------------------------------------------ #
    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the counter ``name`` (created at 0)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to ``value`` (last write wins)."""
        with self._lock:
            self._gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` into the histogram ``name``."""
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram()
            histogram.observe(value)

    # ------------------------------------------------------------------ #
    # Spans
    # ------------------------------------------------------------------ #
    def span(
        self, name: str, _parent: Optional[Tuple[str, str]] = None, **attrs: Any
    ) -> Span:
        """Open a timed span; use as a context manager.

        ``_parent`` overrides the ambient parent context — pass a
        :func:`current_trace_context` tuple shipped from another process to
        attach this span to that trace.
        """
        return Span(self, name, attrs, _parent)

    def _finish_span(self, span: Span, duration_s: float) -> None:
        record = SpanRecord(
            trace_id=span.trace_id,
            span_id=span.span_id,
            parent_id=span.parent_id,
            name=span.name,
            start_wall_s=span.start_wall_s,
            start_mono_s=span.start_mono_s,
            duration_s=duration_s,
            pid=os.getpid(),
            tid=threading.get_ident(),
            attrs=span.attrs,
        )
        with self._lock:
            if len(self._spans) < self.max_spans:
                self._spans.append(record)
            else:
                self._dropped_spans += 1
            histogram = self._histograms.get(f"span.{span.name}")
            if histogram is None:
                histogram = self._histograms[f"span.{span.name}"] = Histogram()
            histogram.observe(duration_s)

    # ------------------------------------------------------------------ #
    # Snapshots and merging
    # ------------------------------------------------------------------ #
    def snapshot(self) -> RecorderSnapshot:
        """A consistent copy of everything recorded so far."""
        with self._lock:
            return RecorderSnapshot(
                counters=dict(self._counters),
                gauges=dict(self._gauges),
                histograms={
                    name: histogram.copy()
                    for name, histogram in self._histograms.items()
                },
                spans=list(self._spans),
                dropped_spans=self._dropped_spans,
            )

    def drain(self) -> RecorderSnapshot:
        """Snapshot *and reset*, atomically.

        Sharded-search workers call this before shipping telemetry home, so
        every returned snapshot is a disjoint delta; merging deltas in any
        order reproduces the full state.
        """
        with self._lock:
            snapshot = RecorderSnapshot(
                counters=self._counters,
                gauges=self._gauges,
                histograms=self._histograms,
                spans=self._spans,
                dropped_spans=self._dropped_spans,
            )
            self._counters = {}
            self._gauges = {}
            self._histograms = {}
            self._spans = []
            self._dropped_spans = 0
            return snapshot

    def merge(self, snapshot: RecorderSnapshot) -> None:
        """Fold another recorder's snapshot into this one.

        Counters and histograms add; gauges take the incoming value (last
        write wins, matching :meth:`gauge`); spans append up to the cap.
        Merging is associative, and commutative up to span order and
        conflicting gauge writes.
        """
        with self._lock:
            for name, value in snapshot.counters.items():
                self._counters[name] = self._counters.get(name, 0) + value
            for name, value in snapshot.gauges.items():
                self._gauges[name] = value
            for name, histogram in snapshot.histograms.items():
                mine = self._histograms.get(name)
                if mine is None:
                    self._histograms[name] = histogram.copy()
                else:
                    mine.merge(histogram)
            for span in snapshot.spans:
                if len(self._spans) < self.max_spans:
                    self._spans.append(span)
                else:
                    self._dropped_spans += 1
            self._dropped_spans += snapshot.dropped_spans


class _NullSpan:
    """The shared no-op span: no ids, no timing, no context mutation."""

    __slots__ = ()

    trace_id: Optional[str] = None
    span_id: Optional[str] = None
    parent_id: Optional[str] = None

    def set_attr(self, key: str, value: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """Disabled telemetry: every operation is a constant-time no-op.

    Instrumented code holds a recorder attribute and calls it
    unconditionally; with the null recorder each call is one attribute
    lookup plus an empty method, so leaving instrumentation permanently in
    the hot paths is free (gated by ``bench_telemetry_overhead``).
    """

    enabled = False

    def count(self, name: str, n: int = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def span(
        self, name: str, _parent: Optional[Tuple[str, str]] = None, **attrs: Any
    ) -> _NullSpan:
        return _NULL_SPAN

    def snapshot(self) -> RecorderSnapshot:
        return RecorderSnapshot()


NULL_RECORDER = NullRecorder()

_GLOBAL_RECORDER = NULL_RECORDER


def get_recorder():
    """The process-wide default recorder (the null recorder until enabled)."""
    return _GLOBAL_RECORDER


def set_recorder(recorder) -> None:
    """Install ``recorder`` as the process-wide default.

    Components capture the default *at construction time* (one attribute on
    the object, so the disabled path stays a lookup away); install the
    recorder before building services, drivers or simulators that should
    report into it.
    """
    global _GLOBAL_RECORDER
    _GLOBAL_RECORDER = recorder


@contextlib.contextmanager
def use_recorder(recorder) -> Iterator[Any]:
    """Temporarily install ``recorder`` as the process default (tests)."""
    previous = get_recorder()
    set_recorder(recorder)
    try:
        yield recorder
    finally:
        set_recorder(previous)

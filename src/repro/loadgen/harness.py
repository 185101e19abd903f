"""The synthetic-traffic harness: drive a live daemon over real sockets.

:class:`LoadHarness` fires a pre-drawn open-loop arrival schedule
(:mod:`repro.loadgen.arrivals`) at a :class:`~repro.serve.daemon.PlanDaemon`
through a pool of worker threads, each holding one persistent
:class:`~repro.serve.client.PlanClient` connection.  Latency is measured
from each request's *scheduled* arrival time — not from when a worker got
around to sending it — so client-side queueing under overload is charged to
the server's latency distribution instead of silently omitted.

Every observation lands in a :class:`repro.obs.Recorder`; the run's
:class:`LoadReport` is derived *entirely* from the drained
:class:`~repro.obs.RecorderSnapshot` (the ROADMAP's stats currency), so the
same numbers are available to the report object, ``BENCH_daemon_load.json``
and ``repro-cli stats`` on an exported snapshot file.

The **query mix** controls cache behaviour: a :class:`QueryMix` holds
``distinct`` distinct queries and samples uniformly, so after every distinct
query has been planned once the steady-state cache-hit ratio approaches 1,
and the first pass measures cold-plan latency.  :meth:`LoadHarness.probe`
isolates the cold pass — one sequential request per distinct query — which
is how the benchmark pins "a warm cache hit is cheaper than a cold plan"
as a gated comparison.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from random import Random
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import LoadgenError, ServeError
from repro.loadgen.arrivals import RateFunction, arrival_times
from repro.obs.recorder import Histogram, Recorder, RecorderSnapshot
from repro.query import PlanQuery
from repro.serve.client import PlanClient

__all__ = ["QueryMix", "LoadReport", "LoadHarness"]


@dataclass(frozen=True)
class QueryMix:
    """The distinct queries a run samples from (uniformly, seeded).

    ``distinct-query ratio`` is the cache knob: with ``d`` distinct queries
    and ``n`` requests, at most ``d`` requests can be cold, so the expected
    cache-hit ratio is ``1 - d/n`` once the run is longer than the mix.
    """

    queries: Tuple[PlanQuery, ...]

    def __post_init__(self) -> None:
        if not self.queries:
            raise LoadgenError("a query mix needs at least one query")

    @classmethod
    def payload_ladder(
        cls,
        axes: Sequence[int],
        reduce_axes: Sequence[int] = (0,),
        base_bytes: int = 1 << 20,
        distinct: int = 4,
        algorithm: str = "ring",
        max_program_size: int = 3,
    ) -> "QueryMix":
        """``distinct`` queries over one shape, payloads ``base * (i+1)``.

        A payload ladder keeps every query against the same topology and
        axes (so one daemon serves all of them) while giving each a distinct
        fingerprint — the cleanest way to dial a cache-hit ratio.
        """
        if distinct < 1:
            raise LoadgenError(f"distinct must be >= 1, got {distinct}")
        return cls(
            queries=tuple(
                PlanQuery(
                    axes=tuple(axes),
                    request=tuple(reduce_axes),
                    bytes_per_device=base_bytes * (step + 1),
                    algorithm=algorithm,
                    max_program_size=max_program_size,
                )
                for step in range(distinct)
            )
        )

    @property
    def distinct(self) -> int:
        return len(self.queries)

    def sample(self, rng: Random) -> PlanQuery:
        return self.queries[rng.randrange(len(self.queries))]


def _histogram_summary(histogram: Optional[Histogram]) -> Optional[Dict[str, float]]:
    if histogram is None or histogram.count == 0:
        return None
    return {
        "count": histogram.count,
        "mean_s": histogram.mean,
        "p50_s": histogram.percentile(0.50),
        "p90_s": histogram.percentile(0.90),
        "p99_s": histogram.percentile(0.99),
        "max_s": histogram.max if histogram.max is not None else 0.0,
    }


@dataclass
class LoadReport:
    """One load phase, summarized straight from a recorder snapshot."""

    label: str
    duration_s: float  # the configured open-loop window
    elapsed_s: float  # wall time until the last reply (includes the tail)
    offered: int = 0
    sent: int = 0
    ok: int = 0
    shed: int = 0
    rate_limited: int = 0
    errors: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    throughput_rps: float = 0.0
    shed_rate: float = 0.0
    cache_hit_ratio: float = 0.0
    latency: Optional[Dict[str, float]] = None
    hit_latency: Optional[Dict[str, float]] = None
    miss_latency: Optional[Dict[str, float]] = None
    tenants: Dict[str, int] = field(default_factory=dict)
    snapshot: Optional[RecorderSnapshot] = None

    @classmethod
    def from_snapshot(
        cls,
        label: str,
        snapshot: RecorderSnapshot,
        duration_s: float,
        elapsed_s: float,
    ) -> "LoadReport":
        counters = snapshot.counters
        sent = counters.get("loadgen.sent", 0)
        ok = counters.get("loadgen.ok", 0)
        shed = counters.get("loadgen.shed", 0)
        hits = counters.get("loadgen.cache_hit", 0)
        misses = counters.get("loadgen.cache_miss", 0)
        answered = hits + misses
        tenants = {}
        prefix = "loadgen.tenant."
        for name, value in counters.items():
            if name.startswith(prefix) and name.endswith(".sent"):
                tenants[name[len(prefix):-len(".sent")]] = value
        return cls(
            label=label,
            duration_s=duration_s,
            elapsed_s=elapsed_s,
            offered=counters.get("loadgen.offered", 0),
            sent=sent,
            ok=ok,
            shed=shed,
            rate_limited=counters.get("loadgen.rate_limited", 0),
            errors=counters.get("loadgen.error", 0),
            cache_hits=hits,
            cache_misses=misses,
            throughput_rps=(ok / elapsed_s) if elapsed_s > 0 else 0.0,
            shed_rate=(shed / sent) if sent else 0.0,
            cache_hit_ratio=(hits / answered) if answered else 0.0,
            latency=_histogram_summary(snapshot.histograms.get("loadgen.latency")),
            hit_latency=_histogram_summary(
                snapshot.histograms.get("loadgen.latency.hit")
            ),
            miss_latency=_histogram_summary(
                snapshot.histograms.get("loadgen.latency.miss")
            ),
            tenants=tenants,
            snapshot=snapshot,
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready summary (without the embedded snapshot)."""
        return {
            "label": self.label,
            "duration_s": self.duration_s,
            "elapsed_s": self.elapsed_s,
            "offered": self.offered,
            "sent": self.sent,
            "ok": self.ok,
            "shed": self.shed,
            "rate_limited": self.rate_limited,
            "errors": self.errors,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "throughput_rps": self.throughput_rps,
            "shed_rate": self.shed_rate,
            "cache_hit_ratio": self.cache_hit_ratio,
            "latency": self.latency,
            "hit_latency": self.hit_latency,
            "miss_latency": self.miss_latency,
            "tenants": dict(sorted(self.tenants.items())),
        }

    def describe(self) -> str:
        latency = self.latency or {}
        p50 = latency.get("p50_s")
        p99 = latency.get("p99_s")
        return (
            f"[{self.label}] {self.ok}/{self.sent} ok in {self.elapsed_s:.2f}s "
            f"({self.throughput_rps:.1f} req/s), shed {self.shed} "
            f"({self.shed_rate * 100:.1f}%), cache-hit {self.cache_hit_ratio * 100:.1f}%, "
            f"p50 {p50 * 1e3:.1f}ms / p99 {p99 * 1e3:.1f}ms"
            if p50 is not None and p99 is not None
            else f"[{self.label}] {self.ok}/{self.sent} ok in {self.elapsed_s:.2f}s "
            f"({self.throughput_rps:.1f} req/s), shed {self.shed}"
        )


class LoadHarness:
    """Open-loop traffic against one daemon address; see the module docstring.

    Parameters
    ----------
    host / port / unix_path:
        Where the daemon listens (same rules as :class:`PlanClient`).
    mix:
        The :class:`QueryMix` to sample.
    profile:
        The arrival-rate function λ(t) (:mod:`repro.loadgen.arrivals`).
    duration_s:
        The open-loop window; arrivals stop after it, replies may trail.
    concurrency:
        Worker threads (one persistent connection each).  When every worker
        is busy, arrivals queue client-side and their waiting time counts
        toward measured latency — open-loop semantics, no omission.
    tenants:
        Round-robin ``tenant`` labels stamped on requests (empty = none).
    """

    def __init__(
        self,
        mix: QueryMix,
        profile: RateFunction,
        duration_s: float,
        host: Optional[str] = None,
        port: Optional[int] = None,
        unix_path: Optional[str] = None,
        seed: int = 0,
        concurrency: int = 8,
        tenants: Sequence[str] = (),
        include_plan: bool = False,
        timeout_s: float = 60.0,
    ) -> None:
        if duration_s <= 0:
            raise LoadgenError(f"duration_s must be positive, got {duration_s}")
        if concurrency < 1:
            raise LoadgenError(f"concurrency must be >= 1, got {concurrency}")
        self.mix = mix
        self.profile = profile
        self.duration_s = duration_s
        self.host = host
        self.port = port
        self.unix_path = unix_path
        self.seed = seed
        self.concurrency = concurrency
        self.tenants = list(tenants)
        self.include_plan = include_plan
        self.timeout_s = timeout_s

    # ------------------------------------------------------------------ #
    def _connect(self) -> PlanClient:
        return PlanClient(
            host=self.host,
            port=self.port,
            unix_path=self.unix_path,
            timeout=self.timeout_s,
        )

    def fetch_daemon_snapshot(self) -> RecorderSnapshot:
        """The daemon's live telemetry (its ``stats`` op), parsed."""
        with self._connect() as client:
            return RecorderSnapshot.from_dict(client.stats())

    def schedule(self) -> List[float]:
        """The arrival offsets this seed draws (deterministic per seed)."""
        return arrival_times(self.profile, self.duration_s, Random(self.seed))

    # ------------------------------------------------------------------ #
    def probe(self, label: str = "probe") -> LoadReport:
        """One sequential request per distinct query: the cold-plan pass.

        Run against a cold daemon this measures cold-plan latency per
        distinct query; run again it measures warm lookups.  Either way the
        report says which it saw (``cache_hits`` / ``cache_misses``).
        """
        recorder = Recorder()
        started = time.perf_counter()
        with self._connect() as client:
            for index, query in enumerate(self.mix.queries):
                tenant = self.tenants[index % len(self.tenants)] if self.tenants else None
                sent_at = time.perf_counter()
                self._one_request(recorder, client, query, tenant, sent_at)
        elapsed = time.perf_counter() - started
        recorder.count("loadgen.offered", self.mix.distinct)
        return LoadReport.from_snapshot(label, recorder.drain(), elapsed, elapsed)

    def run(self, label: str = "load") -> LoadReport:
        """Fire the open-loop schedule; block until every reply is in."""
        schedule = self.schedule()
        if not schedule:
            raise LoadgenError(
                "the arrival schedule is empty (rate x duration too small)"
            )
        rng = Random(self.seed + 1)  # sampling stream independent of arrivals
        plan: List[Tuple[float, PlanQuery, Optional[str]]] = []
        for index, offset in enumerate(schedule):
            tenant = self.tenants[index % len(self.tenants)] if self.tenants else None
            plan.append((offset, self.mix.sample(rng), tenant))

        recorder = Recorder()
        work: "queue.Queue" = queue.Queue()
        workers = [
            threading.Thread(
                target=self._worker, args=(recorder, work), daemon=True
            )
            for _ in range(self.concurrency)
        ]
        for worker in workers:
            worker.start()
        started = time.perf_counter()
        for offset, query, tenant in plan:
            delay = started + offset - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            # The scheduled instant (not "now") is the latency origin.
            work.put((started + offset, query, tenant))
        for _ in workers:
            work.put(None)
        for worker in workers:
            worker.join()
        elapsed = time.perf_counter() - started
        recorder.count("loadgen.offered", len(schedule))
        recorder.gauge("loadgen.concurrency", self.concurrency)
        recorder.gauge("loadgen.duration_s", self.duration_s)
        return LoadReport.from_snapshot(label, recorder.drain(), self.duration_s, elapsed)

    # ------------------------------------------------------------------ #
    def _worker(self, recorder: Recorder, work: "queue.Queue") -> None:
        client: Optional[PlanClient] = None
        try:
            while True:
                item = work.get()
                if item is None:
                    return
                scheduled_at, query, tenant = item
                if client is None:
                    try:
                        client = self._connect()
                    except (OSError, ServeError):
                        recorder.count("loadgen.sent")
                        recorder.count("loadgen.error")
                        recorder.count("loadgen.connect_error")
                        continue
                self._one_request(recorder, client, query, tenant, scheduled_at)
        finally:
            if client is not None:
                client.close()

    def _one_request(
        self,
        recorder: Recorder,
        client: PlanClient,
        query: PlanQuery,
        tenant: Optional[str],
        scheduled_at: float,
    ) -> None:
        recorder.count("loadgen.sent")
        if tenant is not None:
            recorder.count(f"loadgen.tenant.{tenant}.sent")
        try:
            reply = client.plan(query, tenant=tenant, include_plan=self.include_plan)
        except ServeError:
            recorder.count("loadgen.error")
            return
        latency = time.perf_counter() - scheduled_at
        if reply.get("ok"):
            recorder.count("loadgen.ok")
            if tenant is not None:
                recorder.count(f"loadgen.tenant.{tenant}.ok")
            recorder.observe("loadgen.latency", latency)
            hit = reply.get("outcome", {}).get("cache_tier") is not None
            if hit:
                recorder.count("loadgen.cache_hit")
                recorder.observe("loadgen.latency.hit", latency)
            else:
                recorder.count("loadgen.cache_miss")
                recorder.observe("loadgen.latency.miss", latency)
            return
        code = reply.get("error")
        if code == "overloaded":
            recorder.count("loadgen.shed")
            if tenant is not None:
                recorder.count(f"loadgen.tenant.{tenant}.shed")
        elif code == "rate_limited":
            recorder.count("loadgen.rate_limited")
            if tenant is not None:
                recorder.count(f"loadgen.tenant.{tenant}.rate_limited")
        else:
            recorder.count("loadgen.error")
            recorder.count(f"loadgen.refused.{code}")

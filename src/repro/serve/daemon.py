"""The planning daemon: a long-lived asyncio front end over ``PlanningService``.

This is ROADMAP item 1 made real: the piece of the system that *holds*
traffic.  :class:`PlanDaemon` listens on a TCP socket (and optionally a
Unix-domain socket), speaks the newline-delimited JSON protocol of
:mod:`repro.serve.protocol`, and answers ``PlanQuery`` objects through a
shared :class:`~repro.service.engine.PlanningService` — so the plan cache,
the compiled-profile cache and the shape memo all amortize across every
connection.

The serving discipline, in order of arrival:

1. **Framing** — each connection reads length-guarded lines; an overlong
   line gets ``line_too_long`` and the connection is closed, a torn line
   gets ``bad_request`` and the connection survives.
2. **Rate limiting** — an optional per-tenant token bucket (keyed by the
   request's ``tenant`` field; anonymous requests share one bucket) refuses
   over-quota requests with ``rate_limited`` before they cost anything.
3. **Admission control** — a bounded request queue; when it is full the
   request is *shed* with a structured ``overloaded`` reply and a
   ``serve.shed`` counter rather than queued into unbounded latency.
4. **Execution** — planning runs in a single-thread executor so a cold
   search never blocks the event loop; concurrency inside one plan comes
   from the query's own ``shards``.  Each request is
   wrapped in a ``serve.request`` root span, so a ``trace_id`` shipped on
   the wire flows through ``PlanningService.plan`` into
   ``PlanOutcome.provenance()`` unchanged.
5. **Drain** — SIGTERM/SIGINT (or :meth:`PlanDaemon.shutdown`) stops
   accepting connections, answers everything already queued, then exits.

Cache warming on boot replays a ``PlanQuery`` JSONL file (the same format
``serve-batch --queries-file`` reads) through ``PlanningService.warm``, so a
restarted daemon serves its first real request from a hot cache.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import json
import logging
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import ReproError, ServeError
from repro.obs.recorder import get_recorder
from repro.query import PlanQuery
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    ServeRequest,
    decode_message,
    encode_message,
    error_reply,
    ok_reply,
)

__all__ = ["DaemonConfig", "TokenBucket", "PlanDaemon", "load_warm_queries"]

logger = logging.getLogger(__name__)


@dataclass
class DaemonConfig:
    """Everything tunable about how the daemon holds traffic.

    ``port=0`` binds an ephemeral TCP port (read it back from
    :attr:`PlanDaemon.tcp_address`); ``port=None`` disables TCP, in which
    case ``unix_path`` must be set.  ``rate_limit_per_s`` is per tenant —
    every distinct ``tenant`` string gets its own token bucket of that rate;
    ``None`` disables rate limiting entirely.
    """

    host: str = "127.0.0.1"
    port: Optional[int] = 0
    unix_path: Optional[str] = None
    queue_limit: int = 64
    max_line_bytes: int = MAX_LINE_BYTES
    rate_limit_per_s: Optional[float] = None
    rate_limit_burst: Optional[float] = None  # default: max(1, rate)
    warm_path: Optional[str] = None
    drain_timeout_s: float = 30.0
    # Default shard width applied to cold-path planning for requests that did
    # not pick their own (wire queries with an explicit ``shards`` win);
    # ``None`` leaves every query untouched.  Shards are fingerprint-neutral,
    # so this never changes what the cache returns — only how fast cold
    # exhaustive plans are computed.
    shards: Optional[int] = None
    # When the service carries a plan corpus (repro.corpus), replay it into
    # the plan cache before accepting traffic, so exact repeats of
    # historical queries are warm hits from the first request.  Ignored for
    # services without a corpus.
    corpus_warm: bool = True

    def __post_init__(self) -> None:
        if self.port is None and self.unix_path is None:
            raise ServeError("daemon needs a TCP port or a unix_path (or both)")
        if self.shards is not None and (
            isinstance(self.shards, bool)
            or not isinstance(self.shards, int)
            or self.shards < 1
        ):
            raise ServeError(f"shards must be a positive integer, got {self.shards!r}")
        if self.queue_limit < 1:
            raise ServeError(f"queue_limit must be >= 1, got {self.queue_limit}")
        if self.max_line_bytes < 64:
            raise ServeError(f"max_line_bytes must be >= 64, got {self.max_line_bytes}")
        if self.rate_limit_per_s is not None and self.rate_limit_per_s <= 0:
            raise ServeError(
                f"rate_limit_per_s must be positive, got {self.rate_limit_per_s}"
            )


class TokenBucket:
    """A per-tenant token bucket: ``rate`` tokens/s refill, ``burst`` cap.

    Lives entirely on the event loop (no locking); time is injected so tests
    can drive it deterministically.
    """

    __slots__ = ("rate", "burst", "tokens", "last")

    def __init__(self, rate: float, burst: float, now: float) -> None:
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self.last = now

    def try_acquire(self, now: float) -> bool:
        elapsed = max(0.0, now - self.last)
        self.last = now
        self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False

    def retry_after_s(self) -> float:
        """Seconds until one token will be available (0 when already is)."""
        deficit = 1.0 - self.tokens
        return max(0.0, deficit / self.rate)


def load_warm_queries(path: Union[str, Path]) -> List[PlanQuery]:
    """Read a warm file: plain ``PlanQuery`` JSONL (blank lines ignored).

    The same shape ``serve-batch --queries-file`` reads, so a previous run's
    query log is a valid warm file.  A torn line fails loudly — a warm file
    is an operator-provided artefact, not traffic.
    """
    queries: List[PlanQuery] = []
    for number, line in enumerate(Path(path).read_bytes().splitlines(), start=1):
        try:
            line = line.decode("utf-8").strip()
            if line:
                queries.append(PlanQuery.from_dict(json.loads(line)))
        except (ReproError, KeyError, TypeError, ValueError, RecursionError) as error:
            # ValueError covers invalid JSON and invalid UTF-8.
            raise ServeError(f"{path}: bad warm query on line {number}: {error}")
    return queries


class _Connection:
    """Per-connection state: the writer plus a lock serializing its writes.

    Several queued requests from one connection may finish out of order;
    replies interleave at line granularity, matched back by ``id``.
    """

    __slots__ = ("reader", "writer", "write_lock")

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer
        self.write_lock = asyncio.Lock()

    async def send(self, message: Dict[str, Any]) -> None:
        async with self.write_lock:
            self.writer.write(encode_message(message))
            await self.writer.drain()


class PlanDaemon:
    """The long-lived planning front end; see the module docstring.

    ``service`` is anything with ``plan(query) -> PlanOutcome`` and
    ``warm(queries) -> int`` — normally a
    :class:`~repro.service.engine.PlanningService`; tests inject stubs to
    make shedding and drain deterministic.
    """

    def __init__(
        self,
        service,
        config: Optional[DaemonConfig] = None,
        recorder=None,
    ) -> None:
        self.service = service
        self.config = config if config is not None else DaemonConfig()
        self.recorder = recorder if recorder is not None else get_recorder()
        self._queue: Optional[asyncio.Queue] = None
        self._servers: List[asyncio.AbstractServer] = []
        self._worker_task: Optional[asyncio.Task] = None
        # One planning thread: PlanningService (cache, simulator) is not
        # thread-safe, and intra-plan concurrency belongs to the query's
        # shards.  The executor exists so a multi-second cold search never
        # blocks the event loop: hits, sheds and pings keep flowing.
        self._executor: Optional[ThreadPoolExecutor] = None
        self._buckets: Dict[str, TokenBucket] = {}
        self._draining = False
        self._closed = asyncio.Event()
        self._started_mono = 0.0
        self.tcp_address: Optional[Tuple[str, int]] = None
        self.unix_address: Optional[str] = None
        self.warmed = 0
        self.corpus_warmed = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Warm the cache, bind the sockets, start the worker."""
        config = self.config
        self._queue = asyncio.Queue(maxsize=config.queue_limit)
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-plan"
        )
        self._started_mono = time.monotonic()
        # Corpus first, then the warm file: corpus replay is pure cache
        # population (no search), so any warm-file query already answered by
        # history becomes a lookup instead of a cold plan.
        if config.corpus_warm and getattr(self.service, "corpus", None) is not None:
            await self._warm_corpus()
        if config.warm_path is not None:
            await self._warm(config.warm_path)
        if config.port is not None:
            server = await asyncio.start_server(
                self._handle_connection,
                host=config.host,
                port=config.port,
                limit=config.max_line_bytes,
            )
            self._servers.append(server)
            sockname = server.sockets[0].getsockname()
            self.tcp_address = (sockname[0], sockname[1])
        if config.unix_path is not None:
            server = await asyncio.start_unix_server(
                self._handle_connection,
                path=config.unix_path,
                limit=config.max_line_bytes,
            )
            self._servers.append(server)
            self.unix_address = config.unix_path
        self._worker_task = asyncio.ensure_future(self._worker())
        logger.info(
            "daemon listening on %s%s (queue_limit=%d)",
            self.tcp_address,
            f" + {self.unix_address}" if self.unix_address else "",
            config.queue_limit,
        )

    async def _warm(self, path: str) -> None:
        """Replay the warm file through the service before accepting traffic."""
        queries = load_warm_queries(path)
        if not queries:
            return
        loop = asyncio.get_event_loop()
        started = time.perf_counter()
        cold = await loop.run_in_executor(self._executor, self.service.warm, queries)
        elapsed = time.perf_counter() - started
        self.warmed = len(queries)
        self.recorder.count("serve.warm.queries", len(queries))
        self.recorder.count("serve.warm.cold", cold)
        self.recorder.observe("serve.warm_seconds", elapsed)
        logger.info(
            "warmed %d queries from %s in %.2fs (%d were cold)",
            len(queries), path, elapsed, cold,
        )

    async def _warm_corpus(self) -> None:
        """Replay the service's plan corpus into its cache (no search runs)."""
        loop = asyncio.get_event_loop()
        started = time.perf_counter()
        warmed = await loop.run_in_executor(
            self._executor, self.service.warm_from_corpus
        )
        elapsed = time.perf_counter() - started
        self.corpus_warmed = warmed
        self.recorder.count("serve.corpus_warm.plans", warmed)
        self.recorder.observe("serve.corpus_warm_seconds", elapsed)
        logger.info(
            "pre-warmed %d plan(s) from the corpus in %.2fs", warmed, elapsed
        )

    def install_signal_handlers(self, loop: asyncio.AbstractEventLoop) -> None:
        """SIGTERM/SIGINT -> graceful drain (only valid on the main thread)."""
        import signal

        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                signum,
                lambda signum=signum: asyncio.ensure_future(
                    self._signalled(signum)
                ),
            )

    async def _signalled(self, signum: int) -> None:
        logger.info("signal %d: draining and shutting down", signum)
        await self.shutdown(drain=True)

    async def shutdown(self, drain: bool = True) -> None:
        """Stop accepting, optionally answer everything queued, then close."""
        if self._closed.is_set():
            return
        self._draining = True
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        if drain and self._queue is not None:
            try:
                await asyncio.wait_for(
                    self._queue.join(), timeout=self.config.drain_timeout_s
                )
            except asyncio.TimeoutError:
                logger.warning(
                    "drain timed out after %.1fs with %d requests still queued",
                    self.config.drain_timeout_s,
                    self._queue.qsize(),
                )
        if self._worker_task is not None:
            self._worker_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._worker_task
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        if self.unix_address is not None:
            with contextlib.suppress(OSError):
                os.unlink(self.unix_address)
        self._closed.set()
        logger.info("daemon closed")

    async def wait_closed(self) -> None:
        """Block until :meth:`shutdown` has completed (the CLI's main wait)."""
        await self._closed.wait()

    @property
    def uptime_s(self) -> float:
        return time.monotonic() - self._started_mono

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        connection = _Connection(reader, writer)
        self.recorder.count("serve.connections")
        try:
            while True:
                try:
                    line = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as error:
                    # EOF; a trailing unterminated fragment is a torn frame.
                    if error.partial.strip():
                        await self._safe_send(
                            connection,
                            error_reply("bad_request", "unterminated final line"),
                        )
                        self.recorder.count("serve.bad_request")
                    break
                except asyncio.LimitOverrunError:
                    self.recorder.count("serve.line_too_long")
                    await self._safe_send(
                        connection,
                        error_reply(
                            "line_too_long",
                            f"lines are limited to {self.config.max_line_bytes} bytes",
                        ),
                    )
                    break  # the stream is desynchronized; close it
                if not line.strip():
                    continue
                await self._handle_line(connection, line)
        except (ConnectionResetError, BrokenPipeError):
            self.recorder.count("serve.client_gone")
        finally:
            with contextlib.suppress(ConnectionResetError, BrokenPipeError, OSError):
                writer.close()
                await writer.wait_closed()

    async def _handle_line(self, connection: _Connection, line: bytes) -> None:
        try:
            request = ServeRequest.parse(decode_message(line))
        except ReproError as error:
            self.recorder.count("serve.bad_request")
            await self._safe_send(connection, error_reply("bad_request", str(error)))
            return
        if request.op == "ping":
            await self._safe_send(
                connection,
                ok_reply(
                    request.request_id,
                    op="ping",
                    pid=os.getpid(),
                    uptime_s=self.uptime_s,
                ),
            )
            return
        if request.op == "stats":
            snapshot = self.recorder.snapshot()
            await self._safe_send(
                connection,
                ok_reply(request.request_id, op="stats", snapshot=snapshot.to_dict()),
            )
            return
        await self._admit_plan(connection, request)

    async def _admit_plan(self, connection: _Connection, request: ServeRequest) -> None:
        tenant = request.tenant or "_anonymous"
        self.recorder.count("serve.requests")
        self.recorder.count(f"serve.tenant.{tenant}.requests")
        if self._draining:
            await self._safe_send(
                connection,
                error_reply("draining", "daemon is shutting down", request.request_id),
            )
            self.recorder.count("serve.drain_refused")
            return
        if self.config.rate_limit_per_s is not None:
            bucket = self._buckets.get(tenant)
            now = time.monotonic()
            if bucket is None:
                rate = self.config.rate_limit_per_s
                burst = self.config.rate_limit_burst or max(1.0, rate)
                bucket = self._buckets[tenant] = TokenBucket(rate, burst, now)
            if not bucket.try_acquire(now):
                self.recorder.count("serve.rate_limited")
                self.recorder.count(f"serve.tenant.{tenant}.rate_limited")
                await self._safe_send(
                    connection,
                    error_reply(
                        "rate_limited",
                        f"tenant {tenant!r} exceeds "
                        f"{self.config.rate_limit_per_s:g} requests/s",
                        request.request_id,
                        retry_after_s=bucket.retry_after_s(),
                    ),
                )
                return
        assert self._queue is not None
        try:
            self._queue.put_nowait((connection, request))
        except asyncio.QueueFull:
            # Admission control: shedding at the door keeps queueing delay
            # bounded — the client gets a structured refusal it can back off
            # on instead of a timeout.
            self.recorder.count("serve.shed")
            self.recorder.count(f"serve.tenant.{tenant}.shed")
            await self._safe_send(
                connection,
                error_reply(
                    "overloaded",
                    f"request queue full ({self.config.queue_limit})",
                    request.request_id,
                    queue_depth=self._queue.qsize(),
                ),
            )
            return
        self.recorder.gauge("serve.queue_depth", self._queue.qsize())

    async def _safe_send(self, connection: _Connection, message: Dict[str, Any]) -> None:
        try:
            await connection.send(message)
        except (ConnectionResetError, BrokenPipeError, RuntimeError):
            self.recorder.count("serve.client_gone")

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    async def _worker(self) -> None:
        """Drain the admission queue through the planning executor, forever."""
        assert self._queue is not None
        loop = asyncio.get_event_loop()
        while True:
            connection, request = await self._queue.get()
            try:
                reply = await loop.run_in_executor(
                    self._executor, self._plan_blocking, request
                )
                await self._safe_send(connection, reply)
            except Exception:  # never let the worker die silently
                logger.exception("unexpected error answering %r", request.request_id)
                self.recorder.count("serve.internal_error")
                await self._safe_send(
                    connection,
                    error_reply("internal", "unexpected server error", request.request_id),
                )
            finally:
                self._queue.task_done()
                self.recorder.gauge("serve.queue_depth", self._queue.qsize())

    def _plan_blocking(self, request: ServeRequest) -> Dict[str, Any]:
        """Answer one plan request on the executor thread.

        The ``serve.request`` span is opened *here*, in the planning thread,
        so the service's own ``service.plan`` span nests under it through
        the thread's context — and a wire-supplied trace parent becomes the
        trace id every nested span (and the outcome's provenance) carries.
        """
        assert request.query is not None
        tenant = request.tenant or "_anonymous"
        query = request.query
        if self.config.shards is not None and query.shards == 1:
            # The daemon's default shard width; a query that asked for its
            # own (shards != 1 on the wire) keeps it.
            query = dataclasses.replace(query, shards=self.config.shards)
        with self.recorder.span(
            "serve.request", _parent=request.trace_parent, tenant=tenant
        ) as root:
            started = time.perf_counter()
            try:
                outcome = self.service.plan(query)
            except ReproError as error:
                self.recorder.count("serve.plan_failed")
                return error_reply("plan_failed", str(error), request.request_id)
            elapsed = time.perf_counter() - started
        self.recorder.observe("serve.request_seconds", elapsed)
        self.recorder.count("serve.ok")
        self.recorder.count(f"serve.tenant.{tenant}.ok")
        if request.include_plan:
            outcome_dict = outcome.to_dict()
        else:
            # The full ranked plan dominates the frame (tens of kB) and is
            # expensive to serialize; callers that only watch latency and
            # provenance get the headline numbers only.
            speedup = outcome.plan.speedup_over_default()
            outcome_dict = {
                "query": outcome.query.to_dict(),
                "num_candidates": outcome.num_candidates,
                "num_strategies": outcome.num_strategies,
                "best_seconds": (
                    outcome.plan.best.predicted_seconds
                    if outcome.plan.strategies
                    else None
                ),
                "speedup_over_default": speedup if speedup != float("inf") else None,
                "baseline_speedups": outcome.baseline_speedups(),
            }
            outcome_dict.update(outcome.provenance())
        reply = ok_reply(request.request_id, outcome=outcome_dict)
        if root.trace_id is not None:
            reply["trace_id"] = root.trace_id
        return reply

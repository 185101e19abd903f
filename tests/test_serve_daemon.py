"""Tests for the planning daemon: wire protocol, admission control, drain.

The daemon's contract is exercised over *real* sockets — a
:class:`~repro.serve.daemon.DaemonThread` on an ephemeral port, driven by
:class:`~repro.serve.client.PlanClient` and, where the protocol must be
violated on purpose (torn lines, oversized frames), by raw sockets.

Serving-policy tests (shedding, rate limits, drain) use a stub planning
service whose timing is controlled by events, so queue states are
deterministic; the end-to-end tests use a real
:class:`~repro.service.engine.PlanningService` on the Figure 2a rack.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import warnings

import pytest

from repro.errors import QueryError, ReproError, ServeError
from repro.obs.recorder import Recorder
from repro.query import PlanQuery
from repro.serve import (
    DaemonConfig,
    DaemonThread,
    PlanClient,
    ServeRequest,
    TokenBucket,
    decode_message,
    encode_message,
    error_reply,
    load_warm_queries,
    ok_reply,
)
from repro.service import PlanningService
from repro.topology.gcp import figure2a_system

QUERY = PlanQuery(
    axes=(4, 4), request=(0,), bytes_per_device=1 << 20, max_program_size=3
)
QUERY_B = PlanQuery(
    axes=(4, 4), request=(1,), bytes_per_device=1 << 20, max_program_size=3
)


# --------------------------------------------------------------------------- #
# Protocol units
# --------------------------------------------------------------------------- #
class TestProtocol:
    def test_encode_decode_round_trip(self):
        message = {"op": "plan", "query": QUERY.to_dict(), "id": "r1"}
        line = encode_message(message)
        assert line.endswith(b"\n")
        assert b"\n" not in line[:-1]
        assert decode_message(line) == message

    def test_decode_rejects_non_json(self):
        with pytest.raises(ServeError, match="not JSON"):
            decode_message(b"{ torn\n")

    def test_decode_rejects_non_object(self):
        with pytest.raises(ServeError, match="JSON object"):
            decode_message(b"[1, 2]\n")

    def test_decode_rejects_bad_utf8(self):
        with pytest.raises(ServeError, match="not UTF-8"):
            decode_message(b"\xff\xfe{}\n")

    def test_reply_shapes(self):
        assert ok_reply("r1", outcome={}) == {"ok": True, "id": "r1", "outcome": {}}
        refusal = error_reply("overloaded", "queue full", "r2", queue_depth=3)
        assert refusal == {
            "ok": False,
            "error": "overloaded",
            "detail": "queue full",
            "id": "r2",
            "queue_depth": 3,
        }

    def test_parse_bare_query_defaults_to_plan(self):
        request = ServeRequest.parse(
            {"axes": [4, 4], "reduce": [0], "bytes": 1 << 20}
        )
        assert request.op == "plan"
        assert request.query is not None
        assert request.query.bytes_per_device == 1 << 20

    def test_parse_envelope_with_trace_and_tenant(self):
        request = ServeRequest.parse(
            {
                "op": "plan",
                "query": QUERY.to_dict(),
                "tenant": "team-a",
                "id": "r9",
                "trace_id": "deadbeef",
                "span_id": "cafe",
                "include_plan": False,
            }
        )
        assert request.tenant == "team-a"
        assert request.request_id == "r9"
        assert request.include_plan is False
        assert request.trace_parent == ("deadbeef", "cafe")

    def test_parse_trace_id_without_span_id(self):
        request = ServeRequest.parse({"op": "ping", "trace_id": "deadbeef"})
        assert request.trace_parent == ("deadbeef", "client")

    def test_parse_rejects_unknown_op(self):
        with pytest.raises(ServeError, match="unknown op"):
            ServeRequest.parse({"op": "explode"})

    def test_parse_rejects_message_without_op_or_query(self):
        with pytest.raises(ServeError, match="unknown op"):
            ServeRequest.parse({"hello": "world"})

    def test_parse_rejects_bad_tenant(self):
        with pytest.raises(ServeError, match="tenant"):
            ServeRequest.parse({"op": "ping", "tenant": ""})
        with pytest.raises(ServeError, match="128"):
            ServeRequest.parse({"op": "ping", "tenant": "x" * 129})

    def test_parse_rejects_bad_id_and_flags(self):
        with pytest.raises(ServeError, match="'id'"):
            ServeRequest.parse({"op": "ping", "id": 7})
        with pytest.raises(ServeError, match="include_plan"):
            ServeRequest.parse({"op": "plan", "query": QUERY.to_dict(),
                                "include_plan": "yes"})


class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate=1.0, burst=2.0, now=0.0)
        assert bucket.try_acquire(0.0)
        assert bucket.try_acquire(0.0)
        assert not bucket.try_acquire(0.0)  # burst exhausted
        assert bucket.retry_after_s() == pytest.approx(1.0)
        assert bucket.try_acquire(1.0)  # one second refills one token
        assert not bucket.try_acquire(1.0)

    def test_tokens_cap_at_burst(self):
        bucket = TokenBucket(rate=10.0, burst=1.0, now=0.0)
        assert bucket.try_acquire(100.0)  # a long idle gap refills only to burst
        assert not bucket.try_acquire(100.0)


class TestWarmFile:
    def test_loads_plan_query_jsonl(self, tmp_path):
        path = tmp_path / "warm.jsonl"
        path.write_text(
            json.dumps(QUERY.to_dict()) + "\n\n" + json.dumps(QUERY_B.to_dict()) + "\n"
        )
        queries = load_warm_queries(path)
        assert queries == [QUERY, QUERY_B]

    def test_torn_line_fails_loudly(self, tmp_path):
        path = tmp_path / "warm.jsonl"
        path.write_text(json.dumps(QUERY.to_dict()) + "\n{ torn\n")
        with pytest.raises(ServeError, match="line 2"):
            load_warm_queries(path)

    def test_a_json_line_that_is_no_query_names_its_line(self, tmp_path):
        path = tmp_path / "warm.jsonl"
        path.write_text(json.dumps(QUERY.to_dict()) + "\n\n" + '{"reduce": [0]}\n')
        with pytest.raises(ServeError, match="line 3"):
            load_warm_queries(path)


class TestDaemonConfig:
    def test_needs_some_listener(self):
        with pytest.raises(ServeError, match="TCP port or a unix_path"):
            DaemonConfig(port=None, unix_path=None)

    def test_validates_bounds(self):
        with pytest.raises(ServeError, match="queue_limit"):
            DaemonConfig(queue_limit=0)
        with pytest.raises(ServeError, match="rate_limit_per_s"):
            DaemonConfig(rate_limit_per_s=0.0)
        with pytest.raises(ServeError, match="max_line_bytes"):
            DaemonConfig(max_line_bytes=63)

    @pytest.mark.parametrize("shards", [0, True, "2"])
    def test_rejects_bad_default_shards(self, shards):
        with pytest.raises(ServeError, match="shards"):
            DaemonConfig(shards=shards)

    def test_a_unix_only_listener_is_enough(self):
        config = DaemonConfig(port=None, unix_path="plan.sock")
        assert config.port is None and config.unix_path == "plan.sock"


# --------------------------------------------------------------------------- #
# A stub service for deterministic serving-policy tests
# --------------------------------------------------------------------------- #
class StubService:
    """Planner stub: returns a canned outcome, optionally gated on an event.

    ``started`` is set when the first plan call begins executing — the signal
    tests use to know the daemon's worker has dequeued a request and is now
    busy, so everything sent afterwards must queue or shed.
    """

    def __init__(self, outcome, gate=None):
        self.outcome = outcome
        self.gate = gate
        self.started = threading.Event()
        self.planned = 0

    def plan(self, query):
        self.started.set()
        if self.gate is not None:
            assert self.gate.wait(timeout=30), "stub gate never opened"
        self.planned += 1
        return self.outcome

    def warm(self, queries):
        return 0


@pytest.fixture(scope="module")
def real_outcome():
    """One genuine PlanOutcome the stub service can replay."""
    service = PlanningService(figure2a_system())
    return service.plan(QUERY)


# --------------------------------------------------------------------------- #
# End-to-end over real sockets (one real-service daemon for the module)
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def daemon():
    recorder = Recorder()
    service = PlanningService(figure2a_system(), recorder=recorder)
    with DaemonThread(
        service, DaemonConfig(port=0, queue_limit=16), recorder=recorder
    ) as handle:
        yield handle


@pytest.fixture()
def client(daemon):
    host, port = daemon.address
    with PlanClient(host=host, port=port) as c:
        yield c


class TestDaemonEndToEnd:
    def test_ping(self, client):
        reply = client.ping()
        assert reply["ok"] is True
        assert reply["pid"] == os.getpid()
        assert reply["uptime_s"] >= 0

    def test_plan_cold_then_warm(self, client):
        first = client.plan(QUERY, request_id="c1")
        assert first["ok"] is True and first["id"] == "c1"
        outcome = first["outcome"]
        assert outcome["num_strategies"] > 0
        assert outcome["fingerprint"]
        second = client.plan(QUERY, request_id="c2")
        assert second["outcome"]["cache_hit"] is True
        assert second["outcome"]["fingerprint"] == outcome["fingerprint"]

    def test_include_plan_returns_full_outcome(self, client):
        headline = client.plan(QUERY)
        assert "plan" not in headline["outcome"]  # trimmed reply
        full = client.plan(QUERY, include_plan=True)
        strategies = full["outcome"]["plan"]["strategies"]
        assert len(strategies) == headline["outcome"]["num_strategies"]

    def test_trace_id_flows_into_provenance(self, client):
        reply = client.plan(QUERY, trace_id="trace-from-the-wire")
        assert reply["trace_id"] == "trace-from-the-wire"
        assert reply["outcome"]["trace_id"] == "trace-from-the-wire"

    def test_tenant_counters(self, daemon, client):
        client.plan(QUERY, tenant="acme")
        snapshot = client.stats()
        counters = snapshot["counters"]
        assert counters["serve.tenant.acme.requests"] >= 1
        assert counters["serve.tenant.acme.ok"] >= 1

    def test_stats_speaks_the_snapshot_schema(self, client):
        client.plan(QUERY)
        snapshot = client.stats()
        assert snapshot["schema"] == "repro.obs/1"
        assert snapshot["counters"]["serve.ok"] >= 1

    def test_malformed_line_keeps_connection_alive(self, client):
        reply = client.send_raw(b"{ torn json\n")
        assert reply["ok"] is False and reply["error"] == "bad_request"
        assert client.ping()["ok"] is True  # same socket still serves

    def test_deeply_nested_line_is_a_bad_request_on_a_live_connection(self, client):
        # Well under the line bound, but deeper than the JSON parser descends.
        before = client.stats()["counters"].get("serve.bad_request", 0)
        reply = client.send_raw(b"[" * 100000 + b"\n")
        assert reply["ok"] is False and reply["error"] == "bad_request"
        assert "nests" in reply["detail"]
        assert client.ping()["ok"] is True  # same socket still serves
        assert client.stats()["counters"]["serve.bad_request"] == before + 1

    def test_plan_failed_is_structured(self, client):
        # A well-formed query that cannot plan on this topology: the axes
        # product exceeds the 16 devices of Figure 2a.
        bad = {"op": "plan", "query": {"axes": [64, 4], "reduce": [0],
                                       "bytes": 1024}, "id": "nope"}
        reply = client.request(bad)
        assert reply["ok"] is False
        assert reply["error"] in ("bad_request", "plan_failed")
        assert client.ping()["ok"] is True

    def test_oversized_line_is_rejected_and_closed(self, real_outcome):
        # A dedicated daemon with a tiny frame limit, so the overlong line
        # fits comfortably in socket buffers and the test never blocks.
        service = StubService(real_outcome)
        config = DaemonConfig(port=0, max_line_bytes=256)
        with DaemonThread(service, config) as handle:
            host, port = handle.address
            with PlanClient(host=host, port=port) as raw:
                huge = b'{"op": "ping", "pad": "' + b"x" * 1024 + b'"}\n'
                reply = raw.send_raw(huge)
                assert reply["ok"] is False and reply["error"] == "line_too_long"
                assert "256" in reply["detail"]
                # The server closes the desynchronized stream afterwards.
                with pytest.raises(ServeError):
                    raw.ping()
        assert service.planned == 0

    def test_unterminated_final_line_gets_bad_request(self, daemon):
        host, port = daemon.address
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(b'{"op": "ping"')  # no newline, then EOF
            sock.shutdown(socket.SHUT_WR)
            data = b""
            while not data.endswith(b"\n"):
                chunk = sock.recv(65536)
                if not chunk:
                    break
                data += chunk
        reply = decode_message(data)
        assert reply["ok"] is False and reply["error"] == "bad_request"
        assert "unterminated" in reply["detail"]

    def test_concurrent_clients_each_get_their_reply(self, daemon):
        host, port = daemon.address
        errors = []
        replies = [None] * 8

        def worker(index):
            try:
                with PlanClient(host=host, port=port) as c:
                    replies[index] = c.plan(
                        QUERY, request_id=f"w{index}", tenant=f"t{index % 2}"
                    )
            except Exception as error:  # pragma: no cover - surfaced below
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        for index, reply in enumerate(replies):
            assert reply is not None and reply["ok"] is True
            assert reply["id"] == f"w{index}"

    def test_ping_and_stats_echo_the_request_id(self, client):
        assert client.request({"op": "ping", "id": "p1"})["id"] == "p1"
        stats = client.request({"op": "stats", "id": "s1"})
        assert stats["ok"] is True and stats["id"] == "s1"
        assert stats["snapshot"]["schema"] == "repro.obs/1"

    def test_a_bare_query_line_gets_the_full_rebuildable_plan(self, client):
        from repro.api import OptimizationPlan

        reply = client.request(QUERY.to_dict())
        assert reply["ok"] is True
        outcome = reply["outcome"]
        plan = OptimizationPlan.from_dict(outcome["plan"])
        assert len(plan.strategies) == outcome["num_strategies"] > 0
        assert plan.best.predicted_seconds > 0

    def test_the_headline_outcome_carries_the_numbers(self, client):
        outcome = client.plan(QUERY)["outcome"]
        assert PlanQuery.from_dict(outcome["query"]) == QUERY
        assert outcome["num_candidates"] > 0 and outcome["num_strategies"] > 0
        assert outcome["best_seconds"] > 0
        assert isinstance(outcome["baseline_speedups"], dict)
        assert outcome["fingerprint"] and "cache_tier" in outcome

    def test_pipelined_requests_on_one_connection(self, client):
        frames = [
            {"op": "plan", "query": QUERY.to_dict(), "id": f"q{index}",
             "include_plan": False}
            for index in range(3)
        ] + [{"op": "ping", "id": "ping"}]
        client._sock.sendall(b"".join(encode_message(frame) for frame in frames))
        replies = [decode_message(client._read_line()) for _ in frames]
        assert all(reply["ok"] for reply in replies)
        # One planning thread answers the plans in arrival order; the ping
        # is answered on the event loop and may overtake them.
        plan_ids = [r["id"] for r in replies if r["id"] != "ping"]
        assert plan_ids == ["q0", "q1", "q2"]
        assert len(replies) == 4

    def test_every_answered_plan_is_counted_and_timed(self, client):
        def totals():
            snapshot = client.stats()
            return (
                snapshot["counters"].get("serve.ok", 0),
                snapshot["counters"].get("serve.tenant._anonymous.ok", 0),
                snapshot["histograms"]["serve.request_seconds"]["count"],
            )

        client.plan(QUERY)  # the histogram exists from here on
        ok, anonymous, timed = totals()
        for _ in range(3):
            assert client.plan(QUERY)["ok"] is True
        assert totals() == (ok + 3, anonymous + 3, timed + 3)

    def test_bad_requests_and_connections_are_counted(self, daemon, client):
        before = client.stats()["counters"]
        assert client.send_raw(b"[1, 2]\n")["error"] == "bad_request"
        host, port = daemon.address
        with PlanClient(host=host, port=port) as second:
            assert second.ping()["ok"] is True
        after = client.stats()["counters"]
        assert after["serve.bad_request"] == before.get("serve.bad_request", 0) + 1
        assert after["serve.connections"] == before["serve.connections"] + 1


class TestServingPolicy:
    def test_shedding_when_queue_is_full(self, real_outcome):
        gate = threading.Event()
        recorder = Recorder()
        service = StubService(real_outcome, gate=gate)
        config = DaemonConfig(port=0, queue_limit=1)
        with DaemonThread(service, config, recorder=recorder) as handle:
            host, port = handle.address
            with PlanClient(host=host, port=port) as c:
                def send(request_id):
                    c._sock.sendall(
                        encode_message(
                            {"op": "plan", "query": QUERY.to_dict(),
                             "id": request_id, "include_plan": False}
                        )
                    )

                # r0 occupies the (gated) planning executor; once the stub
                # reports it started, the queue is empty and the worker busy.
                send("r0")
                assert service.started.wait(timeout=30)
                # r1 fills the one queue slot (the worker cannot dequeue it
                # while gated); r2..r5 must all be shed at the door.
                for index in range(1, 6):
                    send(f"r{index}")
                shed = [decode_message(c._read_line()) for _ in range(4)]
                for reply in shed:
                    assert reply["ok"] is False
                    assert reply["error"] == "overloaded"
                    assert "queue_depth" in reply
                assert [r["id"] for r in shed] == ["r2", "r3", "r4", "r5"]
                # Open the gate: r0 (executing) and r1 (queued) get answered.
                gate.set()
                served = [decode_message(c._read_line()) for _ in range(2)]
                assert [r["id"] for r in served] == ["r0", "r1"]
                assert all(r["ok"] for r in served)
            snapshot = recorder.snapshot()
            assert snapshot.counters["serve.shed"] == 4
            assert snapshot.counters["serve.tenant._anonymous.shed"] == 4
            assert snapshot.counters["serve.ok"] == 2

    def test_rate_limit_refusal_shape(self, real_outcome):
        service = StubService(real_outcome)
        config = DaemonConfig(
            port=0, rate_limit_per_s=0.001, rate_limit_burst=1.0
        )
        with DaemonThread(service, config) as handle:
            host, port = handle.address
            with PlanClient(host=host, port=port) as c:
                first = c.plan(QUERY, tenant="greedy")
                assert first["ok"] is True
                second = c.request(
                    {"op": "plan", "query": QUERY.to_dict(), "tenant": "greedy",
                     "id": "limited"}
                )
                assert second["ok"] is False
                assert second["error"] == "rate_limited"
                assert second["id"] == "limited"
                assert second["retry_after_s"] > 0
                # Another tenant has its own bucket and is not affected.
                other = c.plan(QUERY, tenant="patient")
                assert other["ok"] is True

    def test_drain_answers_queued_requests(self, real_outcome):
        gate = threading.Event()
        service = StubService(real_outcome, gate=gate)
        with DaemonThread(service, DaemonConfig(port=0, queue_limit=8)) as handle:
            host, port = handle.address
            client = PlanClient(host=host, port=port)
            try:
                for index in range(3):
                    client._sock.sendall(
                        encode_message(
                            {"op": "plan", "query": QUERY.to_dict(),
                             "id": f"d{index}", "include_plan": False}
                        )
                    )
                # Wait until d0 is executing (gated) and d1/d2 sit in the
                # admission queue, so the drain genuinely has queued work.
                assert service.started.wait(timeout=30)
                deadline = time.time() + 30
                while handle.daemon._queue.qsize() < 2 and time.time() < deadline:
                    time.sleep(0.01)
                assert handle.daemon._queue.qsize() == 2
                stopper = threading.Thread(target=handle.stop, kwargs={"drain": True})
                stopper.start()
                gate.set()
                replies = [decode_message(client._read_line()) for _ in range(3)]
                stopper.join(timeout=30)
                assert not stopper.is_alive()
                assert [r["id"] for r in replies] == ["d0", "d1", "d2"]
                assert all(r["ok"] for r in replies)
                assert service.planned == 3
            finally:
                client.close()

    def test_warm_on_boot(self, tmp_path):
        warm_file = tmp_path / "warm.jsonl"
        warm_file.write_text(json.dumps(QUERY.to_dict()) + "\n")
        recorder = Recorder()
        service = PlanningService(figure2a_system(), recorder=recorder)
        config = DaemonConfig(port=0, warm_path=str(warm_file))
        with DaemonThread(service, config, recorder=recorder) as handle:
            assert handle.daemon.warmed == 1
            host, port = handle.address
            with PlanClient(host=host, port=port) as c:
                reply = c.plan(QUERY)
                assert reply["outcome"]["cache_hit"] is True
            snapshot = recorder.snapshot()
            assert snapshot.counters["serve.warm.queries"] == 1
            assert snapshot.counters["serve.warm.cold"] == 1

    def test_unix_socket_round_trip(self, real_outcome, tmp_path):
        path = str(tmp_path / "plan.sock")
        service = StubService(real_outcome)
        config = DaemonConfig(port=None, unix_path=path)
        with DaemonThread(service, config) as handle:
            assert handle.daemon.unix_address == path
            with PlanClient(unix_path=path) as c:
                assert c.ping()["ok"] is True
                assert c.plan(QUERY)["ok"] is True
        assert not os.path.exists(path)  # unlinked on shutdown

    def test_tcp_and_unix_listeners_serve_together(self, real_outcome, tmp_path):
        path = str(tmp_path / "both.sock")
        config = DaemonConfig(port=0, unix_path=path)
        with DaemonThread(StubService(real_outcome), config) as handle:
            host, port = handle.address
            with PlanClient(host=host, port=port) as tcp, PlanClient(unix_path=path) as unix:
                assert tcp.ping()["pid"] == unix.ping()["pid"] == os.getpid()

    def test_an_explicit_burst_admits_that_many(self, real_outcome):
        recorder = Recorder()
        config = DaemonConfig(port=0, rate_limit_per_s=0.001, rate_limit_burst=2.0)
        with DaemonThread(StubService(real_outcome), config, recorder=recorder) as handle:
            host, port = handle.address
            with PlanClient(host=host, port=port) as c:
                replies = [c.plan(QUERY, tenant="bursty") for _ in range(3)]
        assert [r["ok"] for r in replies] == [True, True, False]
        assert replies[2]["error"] == "rate_limited"
        counters = recorder.snapshot().counters
        assert counters["serve.rate_limited"] == 1
        assert counters["serve.tenant.bursty.rate_limited"] == 1
        assert counters["serve.tenant.bursty.requests"] == 3

    def test_plan_failed_is_counted_and_the_connection_survives(self):
        class RefusingService(StubService):
            def plan(self, query):
                raise QueryError("no plan for you")

        recorder = Recorder()
        with DaemonThread(RefusingService(None), DaemonConfig(port=0), recorder=recorder) as handle:
            host, port = handle.address
            with PlanClient(host=host, port=port) as c:
                reply = c.plan(QUERY, request_id="f1")
                assert reply == {"ok": False, "error": "plan_failed",
                                 "detail": "no plan for you", "id": "f1"}
                assert c.ping()["ok"] is True
        assert recorder.snapshot().counters["serve.plan_failed"] == 1

    def test_an_unexpected_error_is_internal_and_the_worker_survives(self):
        class BrokenService(StubService):
            def plan(self, query):
                raise RuntimeError("bug")

        recorder = Recorder()
        with DaemonThread(BrokenService(None), DaemonConfig(port=0), recorder=recorder) as handle:
            host, port = handle.address
            with PlanClient(host=host, port=port) as c:
                for request_id in ("i1", "i2"):  # the second proves the worker lives
                    reply = c.plan(QUERY, request_id=request_id)
                    assert reply["error"] == "internal" and reply["id"] == request_id
        assert recorder.snapshot().counters["serve.internal_error"] == 2

    def test_default_shards_widen_only_unsharded_queries(self, real_outcome):
        class RecordingService(StubService):
            def __init__(self, outcome):
                super().__init__(outcome)
                self.shards = []

            def plan(self, query):
                self.shards.append(query.shards)
                return self.outcome

        service = RecordingService(real_outcome)
        with DaemonThread(service, DaemonConfig(port=0, shards=4)) as handle:
            host, port = handle.address
            with PlanClient(host=host, port=port) as c:
                assert c.plan(QUERY)["ok"] is True
                # ``to_dict`` leaves the fingerprint-neutral shards out; a
                # wire query names them explicitly.
                sharded = dict(QUERY.to_dict(), shards=2)
                assert c.request({"op": "plan", "query": sharded})["ok"] is True
        assert service.shards == [4, 2]

    def test_an_empty_warm_file_warms_nothing(self, real_outcome, tmp_path):
        warm_file = tmp_path / "warm.jsonl"
        warm_file.write_text("\n  \n")
        recorder = Recorder()
        config = DaemonConfig(port=0, warm_path=str(warm_file))
        with DaemonThread(StubService(real_outcome), config, recorder=recorder) as handle:
            assert handle.daemon.warmed == 0
        assert "serve.warm.queries" not in recorder.snapshot().counters

    def test_a_missing_warm_file_fails_the_start(self, real_outcome, tmp_path):
        config = DaemonConfig(port=0, warm_path=str(tmp_path / "absent.jsonl"))
        with pytest.raises(ServeError, match="failed to start"):
            DaemonThread(StubService(real_outcome), config).start()

    def test_a_taken_port_fails_the_start(self, real_outcome):
        with DaemonThread(StubService(real_outcome), DaemonConfig(port=0)) as first:
            _, port = first.address
            with pytest.raises(ServeError, match="failed to start"):
                DaemonThread(StubService(real_outcome), DaemonConfig(port=port)).start()

    def test_stop_is_idempotent(self, real_outcome):
        DaemonThread(StubService(real_outcome)).stop()  # never started: a no-op
        handle = DaemonThread(StubService(real_outcome), DaemonConfig(port=0)).start()
        handle.stop()
        handle.stop()
        assert handle.daemon._closed.is_set()


class TestStatsCommand:
    def test_stats_renders_a_daemon_snapshots_serving_section(
        self, real_outcome, tmp_path, capsys
    ):
        from repro.cli import main

        recorder = Recorder()
        service = StubService(real_outcome)
        with DaemonThread(service, DaemonConfig(port=0), recorder=recorder) as handle:
            host, port = handle.address
            with PlanClient(host=host, port=port) as c:
                for tenant in ("alpha", "beta", "alpha"):
                    assert c.plan(QUERY, tenant=tenant)["ok"] is True
                snapshot_file = tmp_path / "stats.json"
                snapshot_file.write_text(json.dumps(c.stats()))
        capsys.readouterr()
        assert main(["stats", str(snapshot_file)]) == 0
        rendered = capsys.readouterr().out.splitlines()
        assert "serving:" in rendered
        assert "  serve: 3 requests, 3 ok, 0 shed (0.0%)" in rendered
        for tenant in ("alpha", "beta"):
            assert any(line.lstrip().startswith(f"serve/{tenant} ") for line in rendered), tenant

    def test_an_unreadable_snapshot_file_is_a_usage_error(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="cannot read"):
            main(["stats", str(tmp_path / "absent.json")])

    def test_serve_without_tcp_needs_a_unix_socket(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="needs --unix"):
            main(["serve", "--no-tcp"])


def _read_request(conn):
    data = b""
    while not data.endswith(b"\n"):
        chunk = conn.recv(65536)
        if not chunk:
            break
        data += chunk
    return data


def _wait_for_close(conn):
    while conn.recv(65536):
        pass


@contextlib.contextmanager
def scripted_peer(script):
    """A one-connection TCP peer standing in for the daemon.

    ``script(conn)`` runs on the accepted socket; yields ``(host, port)``.
    """
    listener = socket.create_server(("127.0.0.1", 0))
    failures = []

    def serve():
        try:
            conn, _ = listener.accept()
            with conn:
                script(conn)
        except Exception as error:  # pragma: no cover - surfaced below
            failures.append(error)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()[:2]
    finally:
        thread.join(timeout=10)
        listener.close()
    assert not thread.is_alive() and not failures, failures


class TestPlanClient:
    def test_a_failed_unix_connect_closes_its_socket(self, tmp_path):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(FileNotFoundError):
                PlanClient(unix_path=str(tmp_path / "missing.sock"))
            gc.collect()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert not leaks, [str(w.message) for w in leaks]

    def test_needs_exactly_one_transport(self):
        with pytest.raises(ServeError, match="not both"):
            PlanClient(host="127.0.0.1", unix_path="plan.sock")
        with pytest.raises(ServeError, match="needs host and port"):
            PlanClient(host="127.0.0.1")

    def test_the_plan_envelope_carries_only_what_was_given(self):
        def echo(conn):
            for _ in range(2):
                conn.sendall(_read_request(conn))

        with scripted_peer(echo) as (host, port):
            with PlanClient(host=host, port=port) as c:
                assert c.plan(QUERY) == {
                    "op": "plan", "query": QUERY.to_dict(), "include_plan": False,
                }
                full = c.plan(QUERY, tenant="t", include_plan=True,
                              request_id="r1", trace_id="abc")
        assert full == {
            "op": "plan", "query": QUERY.to_dict(), "include_plan": True,
            "tenant": "t", "id": "r1", "trace_id": "abc",
        }

    def test_an_overlong_reply_aborts(self):
        def flood(conn):
            _read_request(conn)
            conn.sendall(b"x" * 200)
            _wait_for_close(conn)

        with scripted_peer(flood) as (host, port):
            with PlanClient(host=host, port=port, max_line_bytes=64) as c:
                with pytest.raises(ServeError, match="exceeds 64 bytes"):
                    c.ping()

    def test_a_closed_connection_is_a_serve_error(self):
        with scripted_peer(_read_request) as (host, port):
            with PlanClient(host=host, port=port) as c:
                with pytest.raises(ServeError, match="closed by the daemon"):
                    c.ping()

    def test_a_silent_daemon_times_out(self):
        def silent(conn):
            _read_request(conn)
            _wait_for_close(conn)

        with scripted_peer(silent) as (host, port):
            with PlanClient(host=host, port=port, timeout=0.2) as c:
                with pytest.raises(ServeError, match="did not reply"):
                    c.ping()

    def test_refused_ping_and_stats_raise(self):
        def refuse(conn):
            for _ in range(2):
                _read_request(conn)
                conn.sendall(encode_message(error_reply("internal")))

        with scripted_peer(refuse) as (host, port):
            with PlanClient(host=host, port=port) as c:
                with pytest.raises(ServeError, match="ping failed"):
                    c.ping()
                with pytest.raises(ServeError, match="stats failed"):
                    c.stats()

    def test_close_is_idempotent(self):
        with scripted_peer(_wait_for_close) as (host, port):
            c = PlanClient(host=host, port=port)
            c.close()
            c.close()


class TestWarm:
    def test_warm_dedupes_equal_plan_queries(self):
        service = PlanningService(figure2a_system())
        twin = PlanQuery(**{field: getattr(QUERY, field) for field in QUERY.__dataclass_fields__})
        assert twin == QUERY and twin is not QUERY
        cold = service.warm([QUERY, twin])
        # Equal queries share one fingerprint, so the second is a memory hit.
        assert cold == 1
        assert service.warm([QUERY, twin]) == 0  # everything cached now


class TestSignalDrain:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        ready_file = tmp_path / "ready.json"
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--system", "a100", "--nodes", "1", "--port", "0",
                "--ready-file", str(ready_file),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            deadline = time.time() + 60
            while time.time() < deadline and not ready_file.exists():
                assert process.poll() is None, (
                    f"daemon died early: {process.stderr.read().decode()}"
                )
                time.sleep(0.2)
            info = json.loads(ready_file.read_text())
            assert info["pid"] == process.pid
            with PlanClient(host=info["host"], port=info["port"]) as c:
                assert c.ping()["ok"] is True
                # The process that is the daemon froze its boot-time heap, and
                # its stats reply says so; a second payload of one shape is
                # answered from the service's shape memo.
                assert c.stats()["gauges"]["gc.frozen_objects"] > 10_000
                first = c.plan(QUERY)["outcome"]
                second = c.plan(dataclasses.replace(QUERY, bytes_per_device=1 << 24))["outcome"]
                assert first["search"]["reused_streams"] == 0
                assert second["cache_tier"] is None
                assert second["search"]["reused_streams"] == 2
                snapshot = c.stats()
                assert snapshot["counters"]["search.shape_memo.hit"] == 2
                assert snapshot["counters"]["search.shape_memo.miss"] == 2
                assert snapshot["gauges"]["search.shape_memo.shapes"] == 1
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
            # A clean drain: the daemon logged shutdown, not a traceback.
            stderr = process.stderr.read().decode()
            assert "Traceback" not in stderr
        finally:
            if process.poll() is None:  # pragma: no cover - cleanup
                process.kill()
                process.wait()
            process.stdout.close()
            process.stderr.close()


class TestReproErrorTaxonomy:
    def test_serve_error_is_a_repro_error(self):
        assert issubclass(ServeError, ReproError)


class TestRetiredSurface:
    """``bench/run.py --workload daemon_open_loop`` is the one open-loop harness."""

    def test_loadgen_is_gone(self, capsys):
        import repro.errors
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["loadgen", "--port", "1"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'loadgen'" in capsys.readouterr().err
        with pytest.raises(ImportError):
            import repro.loadgen  # noqa: F401
        assert not hasattr(repro.errors, "LoadgenError")

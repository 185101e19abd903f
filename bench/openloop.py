"""daemon_open_loop: constant-rate traffic against a real ``repro.cli serve`` process.

Open loop: requests leave on a fixed schedule whether or not earlier ones
were answered, pipelined by ``id`` on one connection, and each is timed from
the moment it was *due* — a stall in the daemon (or a late generator, which
is reported) lengthens every later request instead of thinning the load.
The generator is this one process: the main thread sends, one thread
time-stamps raw reply lines on receipt, and replies are parsed and checked
only after the phase.  A second connection carries the sequential probes.
"""

from __future__ import annotations

import json
import random
import signal
import socket
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import workloads
from checks import Checker, headline_of
from harness import (
    REFERENCE_LOOP_S,
    SpeedCurve,
    constant_rate_schedule,
    describe_factors,
    geomean_of_class_medians,
    mix_flags,
    peak_rss_mb_of,
    percentile,
    plan_dict_digest,
    plan_digest,
    python_env,
    python_exe,
    tail,
)
from inprocess import Measured
from workloads import Target

from repro.api import P2
from repro.query import PlanQuery
from repro.serve.client import PlanClient
from repro.serve.protocol import ServeRequest, decode_message, encode_message
from repro.service.engine import PlanningService

LATENCY_LIMIT_S = 0.150       # a reply later than this after its due time misses
BACKLOG_LIMIT_S = 1.0         # the last reply may trail the last due time by this
ATTAINED_SHARE = 0.99
LATE_LIMIT_S = 0.005          # generator lateness (p99) above this invalidates a phase
INCLUDE_PLAN_SHARE = 0.20
NEVER_SEEN_SHARE = 0.05
STEADY_RATE = 50.0
# The steady phase's first second fills the daemon's queue and is not timed
# (it is still checked).  That also leaves 950 timed requests at the default
# length, whose tail is p98 with 19 samples beyond it: p99 of exactly 1000
# sits on the "ten beyond" edge and spread 19 % between identical runs, p98 10 %.
LEAD_IN_S = 1.0
CALIBRATION_PERIOD_S = 0.25   # the steady phase samples the box's speed this often
# The traced pass's rate ladder: (phase, requests/s, share of --seconds).
PHASES = (("mixed20", 20.0, 0.25), ("warm25", 25.0, 0.15),
          ("warm50", 50.0, 0.20), ("warm100", 100.0, 0.20))
SUSTAINED_LADDER = ("warm25", "warm50", "warm100")


@dataclass
class Sent:
    target: Target
    include_plan: bool
    never_seen: bool
    due: float                      # seconds from phase start
    latency: Optional[float] = None # raw wall, from the due time to the reply's receipt
    reply: Optional[Dict] = None
    reply_bytes: int = 0


@dataclass
class Phase:
    name: str
    rate: float
    sent: List[Sent]
    late: List[float]
    start: float                    # clock reading of the first due time
    speed: SpeedCurve               # sampled around the phase (and inside the steady one)
    backlog_s: float                # last reply after the last due time
    wall_s: float                   # first due time to last reply
    ok: List[Sent] = field(default_factory=list)       # answered and correct
    shed: int = 0


class Wire:
    """One pipelined connection; a thread stamps each reply line on receipt."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.lines: List[Tuple[float, bytes]] = []
        self._thread = threading.Thread(target=self._receive, daemon=True)
        self._thread.start()

    def _receive(self) -> None:
        buffer = b""
        while True:
            try:
                chunk = self.sock.recv(1 << 18)
            except OSError:
                return
            if not chunk:
                return
            now = time.perf_counter()
            buffer += chunk
            while True:
                newline = buffer.find(b"\n")
                if newline < 0:
                    break
                self.lines.append((now, buffer[:newline]))
                buffer = buffer[newline + 1:]

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()
        self._thread.join(timeout=5)


class DaemonOpenLoop:
    name = "daemon_open_loop"
    setup_repeats = 2
    wire = process = log = None

    def setup(self, tmp: Path, seed: int) -> None:
        self.tmp = tmp
        self.targets = workloads.daemon_working_set()
        warm_file = tmp / "WS.jsonl"
        warm_file.write_text("".join(t.query.to_json() + "\n" for t in self.targets))
        ready_file = tmp / "ready.json"
        self.log = open(tmp / "daemon.stderr", "w")
        self.process = subprocess.Popen(
            [python_exe(), "-m", "repro.cli", "serve", "--system", workloads.DAEMON_SYSTEM,
             "--nodes", str(workloads.DAEMON_NODES), "--port", "0",
             "--warm", str(warm_file), "--ready-file", str(ready_file)],
            env=python_env(), stdout=subprocess.DEVNULL, stderr=self.log,
        )
        self.address = self._wait_ready(ready_file)
        self.wire = Wire(*self.address)

    def _wait_ready(self, ready_file: Path) -> Tuple[str, int]:
        deadline = time.monotonic() + 150
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"daemon exited {self.process.returncode} during boot")
            try:
                ready = json.loads(ready_file.read_text())
                return ready["host"], ready["port"]
            except (OSError, ValueError, KeyError):
                time.sleep(0.01)
        self._stop()
        raise RuntimeError("daemon did not become ready within 150 s")

    def _stop(self) -> int:
        """SIGTERM and wait; the daemon must drain and exit 0 on its own."""
        if self.wire is not None:
            self.wire.close()
        if self.process is None:
            return 0
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            code = self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            code = -signal.SIGKILL
        self.log.close()
        return code

    def teardown(self, checker: Optional[Checker] = None) -> None:
        code = self._stop()
        if checker is not None and code != 0:
            checker.fail(f"daemon exited {code} on SIGTERM")

    # ------------------------------------------------------------------ #
    # One open-loop phase
    # ------------------------------------------------------------------ #
    def _plan_phase(self, name: str, rate: float, duration: float, seed: int,
                    never_seen_share: float) -> List[Sent]:
        due = constant_rate_schedule(rate, duration)
        rng = random.Random(f"{seed}-{name}-targets")
        # One independent stream per purpose (string seeds hash identically everywhere).
        full = mix_flags(len(due), INCLUDE_PLAN_SHARE, f"{seed}-{name}-full")
        cold = mix_flags(len(due), never_seen_share, f"{seed}-{name}-cold")
        fresh = iter(workloads.never_seen(sum(cold), f"{seed}-{name}-payloads"))
        return [
            Sent(
                target=next(fresh) if cold[i] else self.targets[rng.randrange(len(self.targets))],
                include_plan=full[i], never_seen=cold[i], due=due[i],
            )
            for i in range(len(due))
        ]

    def _send_phase(self, name: str, rate: float, sent: List[Sent],
                    track_speed: bool = False) -> Phase:
        lines = [
            encode_message({"op": "plan", "id": f"{name}-{i}", "query": s.target.query.to_dict(),
                            "include_plan": s.include_plan})
            for i, s in enumerate(sent)
        ]
        wire = self.wire
        first_line = len(wire.lines)
        late: List[float] = []
        speed = SpeedCurve()
        speed.sample()
        every = max(1, round(rate * CALIBRATION_PERIOD_S))
        want_sample = False
        start = time.perf_counter() + 0.05
        for i, (s, line) in enumerate(zip(sent, lines)):
            due_at = start + s.due
            if want_sample:
                # The loop holds the GIL the receiver needs and the two vCPUs
                # slow each other down, so sample only while the daemon is
                # idle (every request so far answered), as late in the gap
                # before the next send as one loop still fits.
                pause = due_at - 2.0 * REFERENCE_LOOP_S - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                if (due_at - time.perf_counter() > 1.5 * REFERENCE_LOOP_S
                        and len(wire.lines) - first_line == i):
                    speed.sample()
                    want_sample = False
            delay = due_at - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            late.append(max(0.0, time.perf_counter() - due_at))
            wire.sock.sendall(line)
            if track_speed and i % every == 0:
                want_sample = True
        last_due = start + sent[-1].due
        deadline = last_due + 30
        while len(wire.lines) - first_line < len(sent) and time.perf_counter() < deadline:
            time.sleep(0.005)
        speed.sample()  # closes the curve as soon as the last reply is in, before any parsing
        received = wire.lines[first_line:]
        for at, raw in received:
            reply = json.loads(raw)
            prefix, _, index = str(reply.get("id", "")).rpartition("-")
            if prefix != name or not index.isdigit():
                continue
            s = sent[int(index)]
            s.latency = at - (start + s.due)
            s.reply = reply
            s.reply_bytes = len(raw)
        last_reply = max((at for at, _ in received), default=last_due)
        return Phase(name=name, rate=rate, sent=sent, late=late, start=start, speed=speed,
                     backlog_s=last_reply - last_due, wall_s=last_reply - start)

    def _check_phase(self, phase: Phase, checker: Checker) -> None:
        """Every reply correct; ``overloaded`` is a shed, anything else a failure."""
        for s in phase.sent:
            if s.reply is None:
                checker.fail(f"{phase.name}: no reply within 30 s")
                continue
            if not s.reply.get("ok"):
                if s.reply.get("error") == "overloaded":
                    phase.shed += 1
                    checker.attempted += 1
                else:
                    checker.fail(f"{phase.name}: error reply {s.reply.get('error')}")
                continue
            outcome = s.reply["outcome"]
            if s.never_seen:
                self._seed_expected(s.target, checker)
            want = "cold" if s.never_seen else "memory"
            got = outcome["cache_tier"] or "cold"
            if s.include_plan:
                correct = checker.plan(s.target, plan_dict_digest(outcome["plan"]), got, want)
            else:
                correct = checker.headline(s.target, outcome, want)
            if correct:
                phase.ok.append(s)

    def _seed_expected(self, target: Target, checker: Checker) -> None:
        """A never-seen query's expected answer: the same query planned in-process."""
        if target.key in checker.seen:
            return
        plan = P2(target.topology).plan(target.query).plan
        checker.seen[target.key] = {"digest": plan_digest(plan), **headline_of(plan)}

    def _run_phase(self, name: str, rate: float, duration: float, seed: int,
                   checker: Checker, never_seen_share: float = 0.0,
                   track_speed: bool = False) -> Phase:
        phase = self._send_phase(
            name, rate, self._plan_phase(name, rate, duration, seed, never_seen_share),
            track_speed)
        if percentile(phase.late, 99) > LATE_LIMIT_S and never_seen_share == 0.0:
            # The generator fell behind its own schedule: the numbers describe
            # the harness, not the daemon.  Measure the phase again, once.
            phase = self._send_phase(
                name, rate, self._plan_phase(name, rate, duration, seed, never_seen_share),
                track_speed)
        self._check_phase(phase, checker)
        return phase

    # ------------------------------------------------------------------ #
    # Untraced: the steady phase, for the whole run
    # ------------------------------------------------------------------ #
    def measure(self, seed: int, seconds: float, checker: Checker) -> Measured:
        phase = self._run_phase("steady50", STEADY_RATE, seconds, seed, checker,
                                track_speed=True)
        # Latency is the CPU-bound service of the request and of those queued
        # ahead of it (the socket is 0.1 ms of it), so geomean and tail are
        # given at the reference speed.  The limit and throughput are a
        # caller's: judged on raw wall.
        lead_in = min(LEAD_IN_S, seconds / 4.0)
        timed = [s for s in phase.ok if s.due >= lead_in]
        raw = [s.latency for s in timed]
        corrected = [s.latency / phase.speed.at(phase.start + s.due) for s in timed]

        def geomean_and_tail(latencies: List[float]) -> Tuple[float, float]:
            by_class: Dict[str, List[float]] = {}
            for s, latency in zip(timed, latencies):
                by_class.setdefault(s.target.label, []).append(latency)
            return geomean_of_class_medians(by_class) * 1e3, tail(latencies)[1] * 1e3

        geomean_ms, tail_ms = geomean_and_tail(corrected)
        raw_geomean_ms, raw_tail_ms = geomean_and_tail(raw)
        q = tail(raw)[0]
        in_time = sum(1 for x in raw if x <= LATENCY_LIMIT_S)
        measured = Measured()
        measured.metrics.update({
            "plan_geomean_ms": geomean_ms,
            "plan_tail_ms": tail_ms,
            "plans_per_s": in_time / (phase.wall_s - timed[0].due),
            "peak_rss_mb": peak_rss_mb_of(self.process.pid),
        })
        measured.detail.append(
            f"{STEADY_RATE:g} rps x {seconds:g} s: {len(phase.sent)} sent, {len(phase.ok)} correct, "
            f"{phase.shed} shed; {len(timed)} timed after a {lead_in:g} s lead-in, "
            f"{in_time} within {LATENCY_LIMIT_S * 1e3:g} ms (raw wall); "
            f"plan_tail_ms is " + (f"p{q:g}" if q is not None else "the median")
            + f"; generator late p99 {percentile(phase.late, 99) * 1e3:.2f} ms"
        )
        measured.detail.append(
            f"raw wall: plan_geomean_ms {raw_geomean_ms:.6g}, plan_tail_ms {raw_tail_ms:.6g}, "
            f"p50 {statistics.median(raw) * 1e3:.2f} ms (the two metrics are these at the "
            f"reference speed; plans_per_s is raw)"
        )
        measured.detail.append(describe_factors(phase.speed.factors))
        return measured

    # ------------------------------------------------------------------ #
    # Traced: the rate ladder and the sequential probes
    # ------------------------------------------------------------------ #
    def trace(self, seed: int, seconds: float, checker: Checker) -> Measured:
        measured = Measured()
        metrics = measured.metrics
        round_trip_s = self._probes(measured, checker)
        passed: Dict[str, bool] = {}
        late: List[float] = []
        factors: List[float] = []
        phases: Dict[str, Dict] = {}
        for name, rate, share in PHASES:
            phase = self._run_phase(
                name, rate, seconds * share, seed, checker,
                never_seen_share=NEVER_SEEN_SHARE if name == "mixed20" else 0.0,
            )
            late.extend(phase.late)
            factors.extend(phase.speed.factors)
            warm = [s.latency for s in phase.ok if not s.never_seen]
            q, value = tail(warm)
            attained = sum(1 for s in phase.ok if s.latency <= LATENCY_LIMIT_S) / len(phase.sent)
            metrics[f"serve.latency_p50_ms.{name}"] = statistics.median(warm) * 1e3
            metrics[f"serve.latency_tail_ms.{name}"] = value * 1e3
            metrics[f"serve.queue_wait_ms.{name}"] = (
                statistics.median(warm) - round_trip_s) * 1e3
            metrics[f"serve.attained_share.{name}"] = attained
            metrics[f"serve.shed_share.{name}"] = phase.shed / len(phase.sent)
            passed[name] = attained >= ATTAINED_SHARE and phase.backlog_s <= BACKLOG_LIMIT_S
            if name == "mixed20":
                metrics["e2e.mixed_p90_ms"] = percentile(warm, 90) * 1e3
            if name == "warm50":
                metrics["e2e.plan_p50_ms"] = statistics.median(warm) * 1e3
                metrics["serve.reply_bytes"] = statistics.mean(s.reply_bytes for s in phase.ok)
            phases[name] = {
                "rate": rate, "sent": len(phase.sent), "correct": len(phase.ok),
                "shed": phase.shed, "tail_percentile": q, "backlog_s": phase.backlog_s,
                "latencies_s": [s.latency for s in phase.sent],
            }
            measured.detail.append(
                f"{name}: {len(phase.sent)} sent, {len(phase.ok)} correct, {phase.shed} shed, "
                f"tail is " + (f"p{q:g}" if q is not None else "the median")
                + f", backlog {phase.backlog_s * 1e3:.0f} ms"
            )
        sustained = 0.0
        for name, rate, _ in PHASES:
            if name in SUSTAINED_LADDER:
                if not passed[name]:
                    break
                sustained = rate
        metrics["e2e.sustained_rps"] = sustained
        metrics["bench.generator_late_p99_ms"] = percentile(late, 99) * 1e3
        metrics["bench.speed_factor"] = statistics.median(factors)
        measured.detail.append(
            describe_factors(factors) + "; a diagnostic: traced times are raw wall")
        measured.trace = {"workload": self.name, "phases": phases, "metrics": metrics}
        return measured

    def _probes(self, measured: Measured, checker: Checker) -> float:
        """Sequential round trips and codec timings; returns the warm round trip (s)."""
        target = self.targets[0]
        metrics = measured.metrics
        with PlanClient(*self.address) as client:
            pings = []
            for _ in range(200):
                start = time.perf_counter()
                client.ping()
                pings.append(time.perf_counter() - start)
            trips = []
            for _ in range(100):
                start = time.perf_counter()
                reply = client.plan(target.query, include_plan=False)
                trips.append(time.perf_counter() - start)
            full = client.plan(target.query, include_plan=True)
        checker.headline(target, reply["outcome"], "memory")
        checker.plan(target, plan_dict_digest(full["outcome"]["plan"]),
                     full["outcome"]["cache_tier"], "memory")

        service = PlanningService(target.topology)
        service.plan(target.query)
        hits, to_dict = [], []
        for _ in range(50):
            start = time.perf_counter()
            outcome = service.plan(target.query)
            hits.append(time.perf_counter() - start)
            start = time.perf_counter()
            outcome.to_dict()
            to_dict.append(time.perf_counter() - start)
        request_line = encode_message(
            {"op": "plan", "id": "x", "query": target.query.to_dict(), "include_plan": False})
        query_dict = target.query.to_dict()
        encode, decode, from_dict = [], [], []
        for _ in range(50):
            start = time.perf_counter()
            encode_message(full)
            encode.append(time.perf_counter() - start)
            start = time.perf_counter()
            ServeRequest.parse(decode_message(request_line))
            decode.append(time.perf_counter() - start)
            start = time.perf_counter()
            PlanQuery.from_dict(query_dict)
            from_dict.append(time.perf_counter() - start)
        round_trip = statistics.median(trips)
        hit = statistics.median(hits)
        metrics["serve.ping_rtt_us"] = statistics.median(pings) * 1e6
        metrics["serve.wire_overhead_ms"] = (round_trip - hit) * 1e3
        metrics["serve.encode_ms"] = statistics.median(encode) * 1e3
        metrics["serve.decode_us"] = statistics.median(decode) * 1e6
        metrics["query.from_dict_us"] = statistics.median(from_dict) * 1e6
        metrics["query.outcome_to_dict_ms"] = statistics.median(to_dict) * 1e3
        measured.detail.append(
            f"probes on {target.label}: 200 pings, 100 sequential warm round trips "
            f"(median {round_trip * 1e3:.2f} ms), 50 in-process hits "
            f"(median {hit * 1e3:.2f} ms), 50 codec calls each"
        )
        return round_trip


"""Benchmark S1 — the daemon under open-loop load: warm hits must be cheap.

Boots a real :class:`~repro.serve.daemon.PlanDaemon` (on a background
thread, ephemeral TCP port) and drives it with the open-loop harness
(:mod:`repro.loadgen`) over actual sockets — framing, admission queue,
executor hand-off and reply serialization are all on the measured path.

Two phases:

* **cold probe** — one sequential request per distinct query against the
  just-booted daemon; every one is a genuine cold plan (synthesis +
  simulation), giving the cold-plan latency distribution.
* **warm run** — a seeded Poisson schedule over the same query mix; every
  request is now a cache hit, giving steady-state serving latency.

The gate: the warm-phase p50 is the ``median_seconds`` the committed
baseline bounds, and the run asserts the paper-shaped serving story — a
warm cache hit is strictly cheaper than a cold plan at p50, nothing is shed
at this offered load, and the cache-hit ratio is exactly 1 after the probe
has planned the whole mix.  The p99 order and the cold/warm p99 ratio are
printed and recorded as labelled proxies, not gated: the cold p99 comes
from only as many plans as the mix has distinct queries (three), so one
scheduler stall on the warm side flips it, and a ratio whose numerator is
the cold plan fails whenever cold plans get faster although nothing
regressed.  The request count and mix size are deterministic per seed, so
they gate exactly.
"""

from __future__ import annotations

import pytest

from repro.loadgen import LoadHarness, QueryMix, constant_rate
from repro.obs import Recorder, render_summary
from repro.query import PlanQuery
from repro.serve import DaemonConfig, DaemonThread
from repro.service import PlanningService
from repro.topology import figure2a_system

SEED = 7
DURATION_S = 4.0
# Keep the planning thread's utilization low (hits are single-digit ms): at
# 10 req/s Poisson bursts rarely stack, so the warm p99 measures serving,
# not queueing behind the bench machine's own jitter.
OFFERED_RPS = 10.0
CONCURRENCY = 4


def _mix() -> QueryMix:
    """Three distinct *reductions* over one shape (not a payload ladder).

    Distinct reduction axes mean the cold plans share no compiled profiles,
    so each probe miss pays full synthesis + simulation — the honest
    cold-plan latency the warm hits are compared against.  (A payload ladder
    would warm the profile cache on the first query and make the remaining
    "cold" plans nearly free.)
    """
    return QueryMix(
        queries=tuple(
            PlanQuery(
                axes=(4, 4),
                request=reduce_axes,
                bytes_per_device=(1 << 20) * (index + 1),
                max_program_size=3,
            )
            for index, reduce_axes in enumerate([(0,), (1,), (0, 1)])
        )
    )


@pytest.mark.benchmark(group="daemon-load")
def test_daemon_serves_warm_hits_faster_than_cold_plans(
    benchmark, save_artifact, bench_json
):
    recorder = Recorder()
    service = PlanningService(figure2a_system(), recorder=recorder)
    mix = _mix()

    def serve_and_load():
        with DaemonThread(
            service, DaemonConfig(port=0, queue_limit=64), recorder=recorder
        ) as handle:
            host, port = handle.address
            harness = LoadHarness(
                mix,
                constant_rate(OFFERED_RPS),
                DURATION_S,
                host=host,
                port=port,
                seed=SEED,
                concurrency=CONCURRENCY,
                tenants=("alpha", "beta"),
            )
            cold = harness.probe("cold")
            warm = harness.run("warm")
            daemon_snapshot = harness.fetch_daemon_snapshot()
            return cold, warm, daemon_snapshot, len(harness.schedule())

    cold, warm, daemon_snapshot, scheduled = benchmark.pedantic(
        serve_and_load, rounds=1, iterations=1
    )

    text = "\n".join(
        [
            f"Daemon load ({OFFERED_RPS:g} req/s x {DURATION_S:g}s, "
            f"{mix.distinct} distinct queries, {CONCURRENCY} connections)",
            f"  {cold.describe()}",
            f"  {warm.describe()}",
            "",
            render_summary(daemon_snapshot, title="daemon telemetry"),
        ]
    )
    save_artifact("daemon_load", text)

    # The probe hits a genuinely cold daemon; the run is all cache hits.
    assert cold.cache_misses == mix.distinct and cold.cache_hits == 0
    assert cold.miss_latency is not None and warm.hit_latency is not None
    assert warm.offered == scheduled, "the open loop dropped arrivals"
    assert warm.sent == warm.ok, (
        f"{warm.sent - warm.ok} of {warm.sent} requests failed "
        f"(shed {warm.shed}, rate-limited {warm.rate_limited}, errors {warm.errors})"
    )
    assert warm.shed == 0, f"{warm.shed} requests shed at {OFFERED_RPS:g} req/s"
    assert warm.cache_hit_ratio == 1.0, (
        f"cache-hit ratio {warm.cache_hit_ratio:.3f} after the probe planned the mix"
    )
    assert warm.throughput_rps > 0

    # The daemon saw everything the harness sent (probe + run), shed nothing.
    served = daemon_snapshot.counters.get("serve.ok", 0)
    assert served == cold.ok + warm.ok
    assert daemon_snapshot.counters.get("serve.shed", 0) == 0

    assert warm.hit_latency["p50_s"] < cold.miss_latency["p50_s"], (
        f"warm cache hits are not faster than cold plans at p50 "
        f"({warm.hit_latency['p50_s'] * 1e3:.1f}ms vs "
        f"{cold.miss_latency['p50_s'] * 1e3:.1f}ms)"
    )
    cold_p99 = cold.miss_latency["p99_s"]
    warm_hit_p99 = warm.hit_latency["p99_s"]
    speedup = cold_p99 / warm_hit_p99  # a proxy: recorded, never gated
    print(
        f"p99 proxy (not gated; cold p99 from {mix.distinct} plans): "
        f"warm hit {warm_hit_p99 * 1e3:.1f}ms vs cold plan {cold_p99 * 1e3:.1f}ms "
        f"({speedup:.1f}x)"
    )

    bench_json(
        "daemon_load",
        warm.latency["p50_s"],
        counters={
            # Deterministic per seed: the Poisson schedule and the mix size.
            "requests": scheduled,
            "distinct_queries": mix.distinct,
        },
        extra={
            "throughput_rps": warm.throughput_rps,
            "p50_latency_s": warm.latency["p50_s"],
            "p99_latency_s": warm.latency["p99_s"],
            "max_latency_s": warm.latency["max_s"],
            "shed_rate": warm.shed_rate,
            "cache_hit_ratio": warm.cache_hit_ratio,
            "cold_p99_latency_s": cold_p99,
            "warm_hit_p99_latency_s": warm_hit_p99,
            "cold_warm_p99_ratio": speedup,
        },
    )

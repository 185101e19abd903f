"""Benchmark S4 — sharded cold-plan search vs the serial driver.

ROADMAP item 2's acceptance gate.  One appendix-scale cold plan (8-node
A100, a three-axis parallelism shape whose 7 placement matrices split into
four similarly-heavy ones and a cheap tail — so a 4-way partition has real
work on every shard and no single matrix floors the critical path) is
computed twice: serially, and partitioned across ``shards=4`` worker
processes that share a branch-and-bound incumbent
(:mod:`repro.search.sharded`).

Two properties gate, one is asserted:

* **Bit-identity** (asserted) — the exhaustive sharded plan's full ranking,
  floats and baselines equal the serial plan's exactly.  This is the
  contract that makes ``shards`` fingerprint-neutral and sharded plans
  cacheable.
* **Critical-path speedup** (asserted, machine-independent) — serial CPU
  time divided by the busiest shard's CPU time must be >= 2x.  Per-shard
  ``cpu_seconds`` come from ``time.process_time()`` inside each worker, so
  this measures how well the placement ledger splits the *work*, not how
  many cores the machine happened to have.
* **Wall-clock speedup** (asserted only with >= 4 usable cores) — the
  headline number: the sharded cold-plan median must be >= 2x faster than
  serial.  On smaller runners the wall-clock ratio is physically capped
  below the bar, so it is recorded in the JSON instead of asserted.

The committed baseline gates the deterministic counters (matrix and
strategy counts, shard width) exactly and the sharded median with a loose
tolerance (process spawn time varies across runners).
"""

from __future__ import annotations

import os
import time

import pytest

from repro.api import P2
from repro.cost.nccl import NCCLAlgorithm
from repro.evaluation.config import paper_payload_bytes
from repro.hierarchy.parallelism import ParallelismAxes, ReductionRequest
from repro.query import PlanQuery
from repro.topology.gcp import a100_system
from repro.utils.tabulate import format_table

SHARDS = 4
NUM_NODES = 8
SHAPE = (2, 8, 8)
REDUCE = (1,)
MAX_PROGRAM_SIZE = 3
CRITICAL_PATH_BAR = 2.0
WALL_CLOCK_BAR = 2.0


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def _query(payload_scale: float, shards: int = 1) -> PlanQuery:
    return PlanQuery(
        axes=ParallelismAxes(SHAPE),
        request=ReductionRequest(REDUCE),
        bytes_per_device=max(1, int(paper_payload_bytes(NUM_NODES) * payload_scale)),
        algorithm=NCCLAlgorithm.RING,
        max_program_size=MAX_PROGRAM_SIZE,
        shards=shards,
    )


def _ranking(plan):
    return [
        (s.matrix.entries, s.mnemonic, s.predicted_seconds, s.is_default_all_reduce)
        for s in plan.strategies
    ]


@pytest.mark.benchmark(group="search-sharding")
def test_sharded_cold_plan_halves_the_critical_path(
    benchmark, save_artifact, bench_json, payload_scale
):
    topology = a100_system(num_nodes=NUM_NODES)

    def both_plans():
        # A fresh tool per plan: neither side may warm the other's profile
        # cache (the serial driver's cross-matrix signature dedup is part of
        # what sharding has to beat).
        cpu_start = time.process_time()
        wall_start = time.perf_counter()
        serial = P2(topology, max_program_size=MAX_PROGRAM_SIZE).plan(
            _query(payload_scale)
        )
        serial_wall = time.perf_counter() - wall_start
        serial_cpu = time.process_time() - cpu_start
        wall_start = time.perf_counter()
        sharded = P2(topology, max_program_size=MAX_PROGRAM_SIZE).plan(
            _query(payload_scale, shards=SHARDS)
        )
        sharded_wall = time.perf_counter() - wall_start
        return serial, serial_wall, serial_cpu, sharded, sharded_wall

    serial, serial_wall, serial_cpu, sharded, sharded_wall = benchmark.pedantic(
        both_plans, rounds=1, iterations=1
    )

    assert _ranking(serial.plan) == _ranking(sharded.plan), (
        "sharded exhaustive search is not bit-identical to serial"
    )
    assert serial.plan.baselines == sharded.plan.baselines
    assert serial.fingerprint == sharded.fingerprint

    stats = sharded.search["shard_stats"]
    shard_cpus = [entry["cpu_seconds"] for entry in stats]
    critical_path_speedup = serial_cpu / max(shard_cpus)
    wall_speedup = serial_wall / sharded_wall
    cores = _usable_cores()

    rows = [
        [
            entry["shard"],
            ",".join(str(index) for index in entry["matrices"]),
            entry["steals"],
            entry["cpu_seconds"],
            entry["seconds"],
            entry["profile_misses"],
        ]
        for entry in stats
    ]
    text = format_table(
        ["shard", "matrices", "steals", "cpu (s)", "wall (s)", "compiles"],
        rows,
        title=(
            f"Sharded cold plan ({NUM_NODES}-node A100, shape {SHAPE}, "
            f"shards={SHARDS}): serial {serial_wall:.2f}s "
            f"(cpu {serial_cpu:.2f}s) -> sharded {sharded_wall:.2f}s on "
            f"{cores} core(s); critical-path speedup "
            f"{critical_path_speedup:.2f}x, wall {wall_speedup:.2f}x"
        ),
        float_fmt="{:.3f}",
    )
    save_artifact("search_sharding", text)
    bench_json(
        "search_sharding",
        sharded_wall,
        counters={
            "shards": sharded.search["shards"],
            "matrices": sharded.search["matrices_reached"],
            "strategies": len(sharded.plan.strategies),
            "identical_ranking": 1,
        },
        extra={
            "serial_seconds": serial_wall,
            "serial_cpu_seconds": serial_cpu,
            "shard_cpu_seconds": shard_cpus,
            "shard_steals": sharded.search["shard_steals"],
            "critical_path_speedup": critical_path_speedup,
            "wall_clock_speedup": wall_speedup,
            "usable_cores": cores,
        },
    )

    # The machine-independent gate: the ledger must split the work so the
    # busiest shard holds at most half the serial CPU time.
    assert critical_path_speedup >= CRITICAL_PATH_BAR, (
        f"sharding only shortened the critical path "
        f"{critical_path_speedup:.2f}x (bar: {CRITICAL_PATH_BAR}x; "
        f"shard cpu seconds: {[f'{c:.2f}' for c in shard_cpus]})"
    )
    # The headline wall-clock gate, only meaningful when the cores exist.
    if cores >= SHARDS:
        assert wall_speedup >= WALL_CLOCK_BAR, (
            f"sharded cold plan only {wall_speedup:.2f}x faster than serial "
            f"on {cores} cores (bar: {WALL_CLOCK_BAR}x)"
        )
